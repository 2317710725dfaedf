package fnpr

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fnpr/internal/obs"

	// Every package that defines metrics, so the catalogue is complete.
	_ "fnpr/internal/core"
	_ "fnpr/internal/delay"
	_ "fnpr/internal/eval"
	_ "fnpr/internal/exact"
	_ "fnpr/internal/fsfault"
	_ "fnpr/internal/journal"
	_ "fnpr/internal/memo"
	_ "fnpr/internal/sched"
	_ "fnpr/internal/server"
)

// catalogueRows renders the metric definitions as the rows of DESIGN
// §10.3's table, in name order.
func catalogueRows(defs []obs.Def) []string {
	rows := make([]string, len(defs))
	for i, d := range defs {
		rows[i] = fmt.Sprintf("| `%s` | %s | %s | %s |", d.Name, d.Kind, d.Unit, d.Doc)
	}
	return rows
}

// markdownTable returns the body rows (header and separator dropped) of
// the first table after the line heading in doc.
func markdownTable(t *testing.T, doc, heading string) []string {
	t.Helper()
	src, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(src), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("%s: no line %q", doc, heading)
	}
	var rows []string
	for _, line := range strings.Split(after, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		} else if len(rows) > 0 {
			break
		}
	}
	if len(rows) < 2 {
		t.Fatalf("%s: no table after %q", doc, heading)
	}
	return rows[2:]
}

// TestMetricCatalogue holds DESIGN §10.3 to the metric definitions in the
// code: one row per definition, with its name, kind, unit and description,
// in name order, and no other row. Every counter of docs/nfr.md's
// work-counter table must be a defined counter too.
func TestMetricCatalogue(t *testing.T) {
	defs := obs.Catalogue()
	want := catalogueRows(defs)
	got := markdownTable(t, "DESIGN.md", "### 10.3 Metric catalogue")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		inCode := map[string]bool{}
		for _, r := range want {
			inCode[r] = true
		}
		inDoc := map[string]bool{}
		for _, r := range got {
			inDoc[r] = true
			if !inCode[r] {
				t.Errorf("DESIGN §10.3 row not in the code: %s", r)
			}
		}
		for _, r := range want {
			if !inDoc[r] {
				t.Errorf("definition missing from DESIGN §10.3: %s", r)
			}
		}
		t.Fatalf("DESIGN §10.3 differs from the code's catalogue; the rows should read:\n%s", strings.Join(want, "\n"))
	}

	counters := map[string]bool{}
	for _, d := range defs {
		if d.Kind == obs.KindCounter && !d.Family {
			counters[d.Name] = true
		}
	}
	for _, row := range markdownTable(t, filepath.Join("docs", "nfr.md"), "## Work counters") {
		cells := strings.Split(row, "|")
		if len(cells) < 4 {
			t.Fatalf("docs/nfr.md: malformed row %q", row)
		}
		if name := strings.TrimSpace(cells[2]); !counters[name] {
			t.Errorf("docs/nfr.md counts %q, which no package defines as a counter", name)
		}
	}
}
