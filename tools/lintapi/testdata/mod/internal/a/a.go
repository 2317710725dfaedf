// Package a holds one declaration per case the dead-export rule decides.
package a

import "fmt"

// Dead is called only by a's own tests: flagged.
func Dead() {}

// DeadVar is read only by a's external test package: flagged.
var DeadVar = 1

// Used is called by package b: passes.
func Used() int { return 1 }

// Fixture is called only by b's tests: passes.
func Fixture() int { return 2 }

// Second is called only by the second module: passes.
func Second() int { return 3 }

// T is used by b.
type T struct{}

// String implements fmt.Stringer, though nothing calls it: passes.
func (T) String() string { return "t" }

// Area implements b.Shape: passes.
func (T) Area() float64 { return 0 }

// Unwrap implements the interface errors.Unwrap asserts to: passes.
func (T) Unwrap() error { return nil }

// Size is called only by a's tests: flagged.
func (T) Size() int { return 0 }

var _ fmt.Stringer = T{}

// DeadConst is read only by a's tests: flagged.
const DeadConst = 4

// Unused is referenced nowhere: flagged.
type Unused struct{}
