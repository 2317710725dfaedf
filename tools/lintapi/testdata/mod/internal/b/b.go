// Package b uses package a.
package b

import "example.com/fix/internal/a"

// Shape is implemented by a.T.
type Shape interface{ Area() float64 }

// Total returns a.Used through a Shape.
func Total() float64 {
	var s Shape = a.T{}
	return s.Area() + float64(a.Used())
}
