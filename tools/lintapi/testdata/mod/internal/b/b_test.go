package b

import (
	"testing"

	"example.com/fix/internal/a"
)

func TestB(t *testing.T) { _ = a.Fixture() + int(Total()) }
