package fnpr

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentedFlagsExist holds the command lines shown in README.md,
// DESIGN.md and docs/nfr.md to the commands' flag sets: every `-flag`
// written after a command name, in a code block or an inline code span,
// must be a flag that command defines, as its -h output lists them.
// Skipped with -short.
func TestDocumentedFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	defined := map[string]map[string]bool{}
	usageLine := regexp.MustCompile(`(?m)^  -(\S+)`)
	for _, c := range cmds {
		name := c.Name()
		out, _ := exec.Command(buildCmd(t, tmp, name), "-h").CombinedOutput()
		flags := map[string]bool{"h": true, "help": true}
		for _, m := range usageLine.FindAllStringSubmatch(string(out), -1) {
			flags[m[1]] = true
		}
		if len(flags) == 2 {
			t.Fatalf("%s -h lists no flags:\n%s", name, out)
		}
		defined[name] = flags
	}
	flagArg := regexp.MustCompile(`^--?([A-Za-z][\w.-]*)(=.*)?$`)
	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join("docs", "nfr.md")} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range docCode(string(src)) {
			words := strings.Fields(code)
			for i, w := range words {
				cmd := w[strings.LastIndex(w, "/")+1:]
				flags, ok := defined[cmd]
				if !ok || w != cmd && !strings.HasSuffix(w, "cmd/"+cmd) {
					continue
				}
				for _, arg := range words[i+1:] {
					if strings.ContainsAny(arg[:1], "|&;<>#") || defined[arg] != nil {
						break
					}
					if m := flagArg.FindStringSubmatch(arg); m != nil && !flags[m[1]] {
						t.Errorf("%s: `%s` uses -%s, which %s does not define", doc, strings.Join(words, " "), m[1], cmd)
					}
				}
			}
		}
	}
}

// docCode returns the code of a Markdown document: each line of a fenced
// block, with backslash-continued lines joined, and outside the blocks
// each inline code span and each table cell (docs/nfr.md writes its
// commands in table cells).
func docCode(src string) []string {
	var code []string
	inline := regexp.MustCompile("`([^`]+)`")
	fenced, cont := false, ""
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range inline.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
			}
			if strings.HasPrefix(line, "|") {
				code = append(code, strings.Split(line, "|")...)
			}
			continue
		}
		if strings.HasSuffix(line, `\`) {
			cont += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		code = append(code, cont+line)
		cont = ""
	}
	return code
}
