package fnpr

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFuzzMatrixCoversEveryTarget keeps the fuzz-smoke matrix of the CI
// workflow in step with the code: every Fuzz function in a test file must
// have its `{ name: FuzzX, pkg: ./dir }` entry, and every entry must name a
// Fuzz function of that package, so a new target is fuzzed from the change
// that adds it and a renamed one does not leave a job that fuzzes nothing.
func TestCIFuzzMatrixCoversEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	entry := regexp.MustCompile(`\{ name: (Fuzz\w+), pkg: (\./[\w/]+) \}`)
	for _, m := range entry.FindAllStringSubmatch(string(ci), -1) {
		listed[m[2]+" "+m[1]] = true
	}
	if len(listed) == 0 {
		t.Fatal("no fuzz-smoke entries found in ci.yml")
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(f \*testing\.F\)`)
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir // bench/ is its own module, outside CI's root fuzz jobs
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found["./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range found {
		if !listed[key] {
			t.Errorf("fuzz target %s is missing from the fuzz-smoke matrix in ci.yml", key)
		}
	}
	for key := range listed {
		if !found[key] {
			t.Errorf("ci.yml fuzz-smoke entry %s names no Fuzz function", key)
		}
	}
}
