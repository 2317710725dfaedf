package a_test

import (
	"testing"

	"example.com/fix/internal/a"
)

func TestX(t *testing.T) { _ = a.DeadVar }
