// lintapi keeps the exported API of internal packages small. It applies two
// rules to every module under the directory it is given (the root module
// and nested ones such as bench/):
//
// Pairs. A package must not grow parallel exported entry points that differ
// only by a `Ctx` or `Opts` suffix (the pattern that produced the
// fourteen-function core ladder). New code takes an options struct or a
// *guard.Ctx parameter on a single entry point instead. A pair X / XCtx (or
// X / XOpts) in the same package is reported unless
//
//   - the suffixed declaration carries a `Deprecated:` doc comment (it is
//     inside the one-release migration window), or
//   - the pair is in the allowlist below (it predates the convention and is
//     kept for compatibility until its own deprecation cycle).
//
// Dead exports. An exported func, method, type, var or const declared in a
// non-test file under internal/ is reported when no non-test file of any
// package references it and no test file of another package does: its only
// callers are its own package's tests. Shared test fixtures pass, because
// another package's tests use them; so do methods that implement an
// interface. This rule has no allowlist: delete what it reports, or move a
// test oracle unexported into a _test.go file.
//
// Run with: go run ./tools/lintapi [dir]   (default ".")
// Exit status 1 if either rule reports anything, 2 if the code does not
// load.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
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
	pairs, dead, err := lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintapi:", err)
		os.Exit(2)
	}
	for _, b := range append(pairs, dead...) {
		fmt.Fprintln(os.Stderr, b)
	}
	if len(pairs) > 0 {
		fmt.Fprintf(os.Stderr, "lintapi: %d new Ctx/Opts pair(s); see tools/lintapi/main.go for the convention\n", len(pairs))
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "lintapi: %d export(s) with no user outside their own package's tests; delete them or move them into a _test.go file\n", len(dead))
	}
	if len(pairs)+len(dead) > 0 {
		os.Exit(1)
	}
}

// lint loads every package under root and returns both rules' findings,
// each sorted.
func lint(root string) (pairs, dead []string, err error) {
	t, err := load(root)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range t.pkgs {
		var decls []decl
		for _, f := range p.src {
			decls = append(decls, fileDecls(t.fset, f)...)
		}
		pairs = append(pairs, pairFindings(p.dir, decls)...)
	}
	dead, err = t.dead()
	sort.Strings(pairs)
	return pairs, dead, err
}

func pairFindings(dir string, decls []decl) []string {
	var bad []string
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
	return bad
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
