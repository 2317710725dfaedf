// lintapi enforces the consolidated-API convention adopted in the
// observability PR: a package must not grow parallel exported entry points
// that differ only by a `Ctx` or `Opts` suffix (the pattern that produced
// the fourteen-function core ladder). New code takes an options struct or a
// *guard.Ctx parameter on a single entry point instead.
//
// A pair X / XCtx (or X / XOpts) in the same package is reported unless
//
//   - the suffixed declaration carries a `Deprecated:` doc comment (it is
//     inside the one-release migration window), or
//   - the pair is in the allowlist below (it predates the convention and is
//     kept for compatibility until its own deprecation cycle).
//
// Run with: go run ./tools/lintapi [dir]   (default ".")
// Exit status 1 if any new pair is found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist holds the suffixed halves of pairs that existed before the
// convention. Keys are "pkgdir:Name" for functions and types, and
// "pkgdir:Recv.Name" for methods, with pkgdir relative to the module root.
// Do not add entries for new code; deprecate the old name instead.
var allowlist = map[string]bool{
	"internal/npr:AssignQCtx": true,
}

var suffixes = []string{"Ctx", "Opts"}

// decl is one exported identifier: a top-level func, a method (with its
// receiver type), or a type.
type decl struct {
	key        string // Name or Recv.Name, unique within a package
	pos        token.Position
	deprecated bool
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	pkgs, err := collect(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintapi:", err)
		os.Exit(2)
	}
	var bad []string
	for dir, decls := range pkgs {
		byKey := make(map[string]decl, len(decls))
		for _, d := range decls {
			byKey[d.key] = d
		}
		for _, d := range decls {
			for _, suf := range suffixes {
				base := strings.TrimSuffix(d.key, suf)
				if base == d.key || base == "" || strings.HasSuffix(base, ".") {
					continue
				}
				if _, ok := byKey[base]; !ok {
					continue
				}
				if d.deprecated || allowlist[dir+":"+d.key] {
					continue
				}
				bad = append(bad, fmt.Sprintf(
					"%s: exported pair %s / %s — fold the %s variant into an options parameter on %s, or mark it Deprecated:",
					d.pos, base, d.key, suf, base))
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, b)
		}
		fmt.Fprintf(os.Stderr, "lintapi: %d new Ctx/Opts pair(s); see tools/lintapi/main.go for the convention\n", len(bad))
		os.Exit(1)
	}
}

// collect parses every non-test Go file under root, grouped by package
// directory (relative to root).
func collect(root string) (map[string][]decl, error) {
	pkgs := make(map[string][]decl)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgs[dir] = append(pkgs[dir], fileDecls(fset, file)...)
		return nil
	})
	return pkgs, err
}

func fileDecls(fset *token.FileSet, file *ast.File) []decl {
	var out []decl
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			key := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := recvTypeName(d.Recv.List[0].Type)
				if recv == "" || !ast.IsExported(recv) {
					continue
				}
				key = recv + "." + key
			}
			out = append(out, decl{key, fset.Position(d.Pos()), isDeprecated(d.Doc)})
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, s := range d.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = d.Doc
				}
				out = append(out, decl{ts.Name.Name, fset.Position(ts.Pos()), isDeprecated(doc)})
			}
		}
	}
	return out
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

func isDeprecated(doc *ast.CommentGroup) bool {
	return doc != nil && strings.Contains(doc.Text(), "Deprecated:")
}
