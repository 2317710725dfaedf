package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// pkg is one package directory, parsed once for both rules.
type pkg struct {
	dir   string // relative to the lint root
	path  string // import path
	src   []*ast.File
	test  []*ast.File // _test.go files of the package itself
	xtest []*ast.File // _test.go files of its external test package
}

// tree is every package of every module under the lint root, type-checked
// on demand. live holds the key of each object some non-test file, or a
// test file of another package, refers to.
type tree struct {
	fset   *token.FileSet
	pkgs   map[string]*pkg // by import path
	std    types.Importer
	base   map[string]*types.Package // non-test variants, as importers see them
	live   map[string]bool
	ifaces map[string][]*types.Interface // by method name
}

// load parses the Go files under root. A directory with a go.mod starts a
// module, so a nested module such as bench/ imports the root one by path.
func load(root string) (*tree, error) {
	t := &tree{
		fset:   token.NewFileSet(),
		pkgs:   map[string]*pkg{},
		std:    importer.Default(),
		base:   map[string]*types.Package{},
		live:   map[string]bool{},
		ifaces: map[string][]*types.Interface{},
	}
	modules := map[string]string{} // directory → module path
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if mod, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
				modules[p] = modulePath(mod)
			}
			return nil
		}
		dir := filepath.Dir(p)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(t.fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		imp := importPath(modules, dir)
		if imp == "" {
			return fmt.Errorf("%s: not inside a module", p)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		k := t.pkgs[imp]
		if k == nil {
			k = &pkg{dir: rel, path: imp}
			t.pkgs[imp] = k
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			k.src = append(k.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			k.xtest = append(k.xtest, f)
		default:
			k.test = append(k.test, f)
		}
		return nil
	})
	return t, err
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// importPath maps dir to its import path through the nearest enclosing
// module.
func importPath(modules map[string]string, dir string) string {
	var rest []string
	for d := dir; ; d = filepath.Dir(d) {
		if mod, ok := modules[d]; ok {
			return path.Join(append([]string{mod}, rest...)...)
		}
		if parent := filepath.Dir(d); parent == d {
			return ""
		}
		rest = append([]string{filepath.Base(d)}, rest...)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importBase returns the non-test variant of a package under the root, or
// the standard library's export data for any other path.
func (t *tree) importBase(path string) (*types.Package, error) {
	if tp, ok := t.base[path]; ok {
		return tp, nil
	}
	p := t.pkgs[path]
	if p == nil || len(p.src) == 0 {
		return t.std.Import(path)
	}
	tp, err := t.check(p, path, p.src, importerFunc(t.importBase))
	t.base[path] = tp
	return tp, err
}

// check type-checks files as package path and records what they refer to.
// Only non-test files contribute interfaces, so that an interface a test
// declares does not keep the methods it lists alive.
func (t *tree) check(p *pkg, path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	tp, err := (&types.Config{Importer: imp}).Check(path, t.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.dir, err)
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil {
			continue
		}
		inTest := strings.HasSuffix(t.fset.File(id.Pos()).Name(), "_test.go")
		if !inTest || strings.TrimSuffix(obj.Pkg().Path(), "_test") != p.path {
			t.live[objKey(obj)] = true
		}
	}
	for expr, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && !strings.HasSuffix(t.fset.File(expr.Pos()).Name(), "_test.go") {
			t.addIface(it)
		}
	}
	return tp, nil
}

// checkTests type-checks p's own test files with its sources, then its
// external test package against that variant, as go test builds them.
func (t *tree) checkTests(p *pkg) error {
	variant := t.base[p.path]
	if len(p.test) > 0 {
		var err error
		files := append(p.src[:len(p.src):len(p.src)], p.test...)
		if variant, err = t.check(p, p.path, files, importerFunc(t.importBase)); err != nil {
			return err
		}
	}
	if len(p.xtest) == 0 {
		return nil
	}
	_, err := t.check(p, p.path+"_test", p.xtest, importerFunc(func(path string) (*types.Package, error) {
		if path == p.path {
			return variant, nil
		}
		return t.importBase(path)
	}))
	return err
}

func (t *tree) addIface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		t.ifaces[name] = append(t.ifaces[name], it)
	}
}

// errorsProtocols declares the unnamed interfaces package errors asserts
// to. Export data carries only named types, so these are added by hand.
const errorsProtocols = `package protocols
var _ interface{ Unwrap() error }
var _ interface{ Unwrap() []error }
var _ interface{ Is(error) bool }
var _ interface{ As(any) bool }
`

// collectIfaces indexes the interfaces a method can implement: the named
// ones of every package reachable from the checked ones, the standard
// library included, error, and errorsProtocols.
func (t *tree) collectIfaces() error {
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					t.addIface(it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, tp := range t.base {
		walk(tp)
	}
	t.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	f, err := parser.ParseFile(t.fset, "protocols.go", errorsProtocols, 0)
	if err != nil {
		return err
	}
	_, err = t.check(&pkg{dir: "protocols"}, "protocols", []*ast.File{f}, t.std)
	return err
}

// objKey names a package-level object or a method across the separately
// checked variants of its package: "path.Name" or "path.Recv.Name".
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// dead type-checks every package with its tests and reports, in source
// order, the exports under internal/ that are not live.
func (t *tree) dead() ([]string, error) {
	paths := make([]string, 0, len(t.pkgs))
	for path := range t.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if len(t.pkgs[path].src) > 0 {
			if _, err := t.importBase(path); err != nil {
				return nil, err
			}
		}
	}
	for _, path := range paths {
		if err := t.checkTests(t.pkgs[path]); err != nil {
			return nil, err
		}
	}
	if err := t.collectIfaces(); err != nil {
		return nil, err
	}

	type finding struct {
		pos  token.Pos
		name string
	}
	var found []finding
	for _, path := range paths {
		p, tp := t.pkgs[path], t.base[path]
		if tp == nil || !underInternal(p.dir) {
			continue
		}
		report := func(obj types.Object, name string) {
			if obj.Exported() && !t.live[objKey(obj)] {
				found = append(found, finding{obj.Pos(), tp.Name() + "." + name})
			}
		}
		for _, name := range tp.Scope().Names() {
			obj := tp.Scope().Lookup(name)
			report(obj, name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); !t.implementsIface(named, m.Name()) {
							report(m, name+"."+m.Name())
						}
					}
				}
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	bad := make([]string, len(found))
	for i, f := range found {
		bad[i] = fmt.Sprintf("%s: %s has no user outside its own package's tests", t.fset.Position(f.pos), f.name)
	}
	return bad, nil
}

func underInternal(dir string) bool {
	return dir == "internal" || strings.HasPrefix(dir, "internal"+string(filepath.Separator))
}

// implementsIface reports whether T or *T satisfies a known interface that
// has a method called name.
func (t *tree) implementsIface(named *types.Named, name string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range t.ifaces[name] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
