package privim_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names declarations that no binary reaches yet but that an
// open ROADMAP item will call. Each value names that item.
var reachAllowlist = map[string]string{
	"privim/internal/dp.AlphaGrid":          "A tight accountant for the mechanism as run",
	"privim/internal/privim.FitIndicator":   "Reproducible paper tables with intervals",
	"privim/internal/stats.BootstrapMeanCI": "Reproducible paper tables with intervals",
	"privim/internal/stats.StdDev":          "Reproducible paper tables with intervals",
	"privim/internal/stats.Variance":        "Reproducible paper tables with intervals",
}

// stdDispatched are method names the standard library calls through a
// dynamic type assertion or reflection (fmt, errors, encoding/json,
// math/rand) rather than through an interface type in a signature.
var stdDispatched = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText", "Uint64",
}

const modulePath = "privim"

// TestEveryDeclarationReachable type-checks every non-test package of the
// module plus perfbench/ and walks the reference graph from the program's
// roots: main in cmd/, examples/ and perfbench/, every exported name of
// the facade, and the exported methods of each type the facade aliases.
// A call through an interface reaches every method of that name on a used
// type. A declaration that a test file of another package names (a test
// oracle) or that reachAllowlist lists is a root too. Each top-level
// declaration left unreached fails the test.
func TestEveryDeclarationReachable(t *testing.T) {
	goroot := build.Default.GOROOT
	if _, err := os.Stat(filepath.Join(goroot, "src", "fmt")); err != nil {
		t.Skipf("standard library source not found under GOROOT %q", goroot)
	}
	l := newReachLoader(goroot)
	dirs, err := l.loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	roots := map[types.Object]bool{}
	for _, dir := range dirs {
		if err := l.testRefs(dir, roots); err != nil {
			t.Fatal(err)
		}
	}
	byKey := map[string]types.Object{}
	for obj, d := range l.decls {
		byKey[d.key] = obj
	}
	for key := range reachAllowlist {
		if obj, ok := byKey[key]; ok {
			roots[obj] = true
		} else {
			t.Errorf("reachAllowlist names %s, which is not declared", key)
		}
	}
	var dead []string
	for _, d := range l.unreached(roots) {
		dead = append(dead, fmt.Sprintf("%s: %s", l.fset.Position(d.node.Pos()), d.key))
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations are reachable from no binary, example, perfbench workload or facade name; delete them:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// reachDecl is one top-level declaration of the module.
type reachDecl struct {
	key  string // "pkg/path.Name" or "pkg/path.Type.Method"
	pkg  string
	node ast.Node
}

type reachLoader struct {
	fset   *token.FileSet
	goroot string
	ctxt   build.Context
	pkgs   map[string]*types.Package
	info   *types.Info            // module packages only
	files  map[string][]*ast.File // module packages only
	decls  map[types.Object]*reachDecl
}

func newReachLoader(goroot string) *reachLoader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &reachLoader{
		fset:   token.NewFileSet(),
		goroot: goroot,
		ctxt:   ctxt,
		pkgs:   map[string]*types.Package{"unsafe": types.Unsafe},
		info:   &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		files:  map[string][]*ast.File{},
		decls:  map[types.Object]*reachDecl{},
	}
}

// loadModule type-checks every package directory under root and returns
// the directories holding Go files. perfbench/ is its own module with
// privim replaced by this one, so its import paths resolve the same way.
func (l *reachLoader) loadModule(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := l.ctxt.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		dirs = append(dirs, path)
		if len(bp.GoFiles) == 0 {
			return nil
		}
		_, err = l.Import(importPathOf(path))
		return err
	})
	return dirs, err
}

func importPathOf(dir string) string {
	dir = filepath.ToSlash(filepath.Clean(dir))
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

func isModule(p *types.Package) bool { return p != nil && inModule(p.Path()) }

// Import implements types.Importer: module packages are checked with
// bodies and their declarations indexed; standard-library packages are
// checked from GOROOT source without bodies.
func (l *reachLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	module := inModule(path)
	dir := "." + strings.TrimPrefix(path, modulePath)
	if !module {
		dir = filepath.Join(l.goroot, "src", path)
		if _, err := os.Stat(dir); err != nil {
			dir = filepath.Join(l.goroot, "src", "vendor", path)
		}
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("import %s: %v", path, err)
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: !module}
	info := &types.Info{}
	if module {
		info = l.info
	}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = p
	if module {
		l.files[path] = files
		l.index(path, files)
	}
	return p, nil
}

func (l *reachLoader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// index records each top-level declaration of a module package.
func (l *reachLoader) index(path string, files []*ast.File) {
	add := func(id *ast.Ident, node ast.Node) {
		if obj := l.info.Defs[id]; obj != nil && id.Name != "_" {
			l.decls[obj] = &reachDecl{key: objKey(obj), pkg: path, node: node}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, spec)
						}
					}
				}
			}
		}
	}
}

// objKey names a package-level object or a method: "pkg.Name" or
// "pkg.Type.Method".
func objKey(obj types.Object) string {
	if recv := recvNamed(obj); recv != nil {
		return obj.Pkg().Path() + "." + recv.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named receiver type of a method, nil otherwise.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// testRefs type-checks the test files in dir and adds to named every
// module declaration they refer to outside dir's own package.
func (l *reachLoader) testRefs(dir string, named map[types.Object]bool) error {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return err
	}
	path := importPathOf(dir)
	for i, names := range [][]string{bp.TestGoFiles, bp.XTestGoFiles} {
		if len(names) == 0 {
			continue
		}
		files, err := l.parse(dir, names)
		if err != nil {
			return err
		}
		checkPath := path + "_test"
		if i == 0 { // in-package tests compile with the package's own files
			files = append(files, l.files[path]...)
			checkPath = path
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: l}).Check(checkPath, l.fset, files, info); err != nil {
			return fmt.Errorf("type-check tests of %s: %v", path, err)
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			inTest := strings.HasSuffix(l.fset.Position(id.Pos()).Filename, "_test.go")
			if inTest && isModule(obj.Pkg()) && obj.Pkg().Path() != path {
				named[obj] = true
			}
		}
	}
	return nil
}

// unreached walks the reference graph to a fixed point from the
// program's roots plus extra, and returns every module declaration
// outside perfbench/ left unreached, sorted by key.
func (l *reachLoader) unreached(extra map[types.Object]bool) []*reachDecl {
	reached := map[types.Object]bool{}
	names := map[string]bool{} // method names some interface call may dispatch to
	used := map[*types.TypeName]bool{}
	seenTypes := map[types.Type]bool{}
	var work []types.Object

	var mark func(obj types.Object)
	// walkType collects the method names of every interface that a
	// reached standard-library object or interface type mentions, since
	// the library may call them on module values.
	var walkType func(t types.Type)
	walkType = func(t types.Type) {
		if t == nil || seenTypes[t] {
			return
		}
		seenTypes[t] = true
		switch t := t.(type) {
		case *types.Named:
			if isModule(t.Obj().Pkg()) {
				mark(t.Obj())
			}
			walkType(t.Underlying())
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				names[t.Method(i).Name()] = true
				walkType(t.Method(i).Type())
			}
		case *types.Signature:
			walkType(t.Params())
			walkType(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walkType(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walkType(t.Field(i).Type())
			}
		case *types.Pointer:
			walkType(t.Elem())
		case *types.Slice:
			walkType(t.Elem())
		case *types.Array:
			walkType(t.Elem())
		case *types.Map:
			walkType(t.Key())
			walkType(t.Elem())
		case *types.Chan:
			walkType(t.Elem())
		}
	}
	mark = func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if reached[obj] {
			return
		}
		reached[obj] = true
		if recv := recvNamed(obj); recv != nil && types.IsInterface(recv) {
			names[obj.Name()] = true
		}
		if tn, ok := obj.(*types.TypeName); ok {
			used[tn] = true
			if types.IsInterface(tn.Type()) {
				walkType(tn.Type())
			}
		}
		if !isModule(obj.Pkg()) {
			walkType(obj.Type())
			return
		}
		work = append(work, obj)
	}

	for _, n := range stdDispatched {
		names[n] = true
	}
	for obj, d := range l.decls {
		switch {
		case extra[obj] || obj.Name() == "init" || obj.Name() == "main" && obj.Pkg().Name() == "main":
			mark(obj)
		case d.pkg == modulePath && obj.Exported():
			mark(obj)
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					if m := ms.At(i).Obj(); m.Exported() {
						mark(m)
					}
				}
			}
		}
	}
	// Blank declarations (interface assertions) compile regardless.
	for _, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "_" {
							l.refs(vs, mark)
						}
					}
				}
			}
		}
	}

	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if d := l.decls[obj]; d != nil {
				l.refs(d.node, mark)
			}
		}
		// A used type's methods are reached by any interface call of
		// their name.
		for obj := range l.decls {
			if recv := recvNamed(obj); recv != nil && !reached[obj] && names[obj.Name()] && used[recv.Obj()] {
				mark(obj)
			}
		}
	}

	var out []*reachDecl
	for obj, d := range l.decls {
		if !reached[obj] && !strings.HasPrefix(d.pkg, modulePath+"/perfbench") {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// refs marks every object an identifier inside node refers to.
func (l *reachLoader) refs(node ast.Node, mark func(types.Object)) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := l.info.Uses[id]; obj != nil && obj.Pkg() != nil {
				mark(obj)
			}
		}
		return true
	})
}
