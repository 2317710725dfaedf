package fnpr

import (
	"os/exec"
	"strings"
	"testing"
)

// TestCommandsLinkNoFaultInjection keeps test-only fault machinery out of the
// shipped binaries: the chaos injector is imported by tests alone, and the
// analyses are deterministic, so no command links a fault seam or a retry
// stage. Skipped with -short.
func TestCommandsLinkNoFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	out, err := exec.Command("go", "list", "-deps", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/...: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "fnpr/internal/chaos", "fnpr/internal/retry":
			t.Errorf("a command links %s", pkg)
		}
	}
}
