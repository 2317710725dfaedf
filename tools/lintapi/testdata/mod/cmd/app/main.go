// Command app calls package npr.
package main

import (
	"example.com/fix/internal/b"
	"example.com/fix/internal/npr"
)

func main() {
	npr.AssignQ()
	npr.AssignQCtx()
	npr.Run()
	npr.RunCtx()
	npr.Load()
	npr.LoadOpts()
	_ = b.Total()
}
