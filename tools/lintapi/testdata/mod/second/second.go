// Package second is a nested module that imports the root one, as bench/
// does.
package second

import "example.com/fix/internal/a"

// Value calls a.Second.
func Value() int { return a.Second() }
