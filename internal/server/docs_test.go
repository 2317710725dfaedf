package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fnpr/internal/obs"
)

// docPath matches a /v1 path in prose, with the method when the text gives
// one: "POST /v1/analyze", "/v1/jobs/job-000001", "/v1/campaign/<kind>".
var docPath = regexp.MustCompile(`(?:\b(GET|POST) )?(/v1/[A-Za-z0-9_./{}<>-]*[A-Za-z0-9_}>])`)

// TestDocumentedRoutesResolve is the docs contract for the HTTP surface:
// every /v1 path README.md or DESIGN.md names resolves to a registered
// route, and every registered /v1 route is named in README.md.
func TestDocumentedRoutesResolve(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	resolve := func(method, path string) string {
		_, pattern := s.mux.Handler(httptest.NewRequest(method, path, nil))
		return pattern
	}
	inREADME := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		matches := docPath.FindAllStringSubmatch(string(data), -1)
		if len(matches) == 0 {
			t.Fatalf("%s names no /v1 path", doc)
		}
		for _, m := range matches {
			methods := []string{m[1]}
			if m[1] == "" {
				methods = []string{http.MethodGet, http.MethodPost}
			}
			paths := []string{strings.ReplaceAll(m[2], "{id}", "job-000001")}
			if strings.Contains(m[2], "<kind>") {
				paths = paths[:0]
				for kind := range campaigns {
					paths = append(paths, strings.ReplaceAll(m[2], "<kind>", kind))
				}
			}
			for _, path := range paths {
				var pattern string
				for _, method := range methods {
					if pattern = resolve(method, path); pattern != "" {
						break
					}
				}
				if pattern == "" {
					t.Errorf("%s: %s resolves to no route", doc, strings.TrimSpace(m[0]))
					continue
				}
				if doc == "README.md" {
					inREADME[pattern] = true
				}
			}
		}
	}
	for pattern := range s.handlers() {
		if strings.Contains(pattern, " /v1/") && !inREADME[pattern] {
			t.Errorf("route %s is not named in README.md", pattern)
		}
	}
}
