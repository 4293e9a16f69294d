package roarray_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers keeps internal/ sized to its callers. It
// type-checks this module and the nested perfbench module from source and
// fails on every exported function or method under internal/ that nothing
// references except its own package's tests. References from non-test code
// anywhere (cmd/, examples/, perfbench/, internal/ and the facade) count, as
// do references from another package's tests, which is how a reference
// implementation that other packages' tests compare against stays. A method
// that implements a method of an interface the module declares or imports
// counts as used, since it can be called through that interface.
func TestInternalExportsHaveCallers(t *testing.T) {
	s, err := newExportScan(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range s.order {
		p := s.pkgs[path]
		if _, err := s.check(p); err != nil {
			t.Fatal(err)
		}
		if len(p.bp.XTestGoFiles) > 0 {
			if _, err := s.typeCheck(path+"_test", p.dir, p.bp.XTestGoFiles); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range s.unused() {
		pos := s.fset.Position(f.Pos())
		t.Errorf("%s:%d: %s has no caller outside its own package's tests", pos.Filename, pos.Line, funcName(f))
	}
}

type exportScan struct {
	fset  *token.FileSet
	root  string
	std   types.ImporterFrom
	pkgs  map[string]*scanPkg // by import path
	order []string
	uses  map[types.Object]bool
}

type scanPkg struct {
	path, dir string
	bp        *build.Package
	pkg       *types.Package // non-test files plus in-package test files
	checking  bool
}

// newExportScan finds every package directory under root. The nested
// perfbench module's path is its directory's path under the root module's,
// so one rule names both modules' packages.
func newExportScan(root string) (*exportScan, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	build.Default = ctxt // the source importer reads build.Default
	s := &exportScan{
		fset: token.NewFileSet(),
		root: abs,
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
		pkgs: map[string]*scanPkg{},
		uses: map[types.Object]bool{},
	}
	err = filepath.WalkDir(abs, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := ctxt.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(abs, dir)
		if err != nil {
			return err
		}
		path := "roarray"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		s.pkgs[path] = &scanPkg{path: path, dir: dir, bp: bp}
		s.order = append(s.order, path)
		return nil
	})
	return s, err
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, s.root, 0)
}

// ImportFrom type-checks the module's own packages itself, so that every
// reference resolves to one object, and leaves the standard library to the
// source importer.
func (s *exportScan) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return s.check(p)
	}
	return s.std.ImportFrom(path, dir, 0)
}

// check type-checks p's non-test and in-package test files together, as
// `go test` builds them; Go forbids those test files an import cycle, and
// the external test package then sees any helper they export.
func (s *exportScan) check(p *scanPkg) (*types.Package, error) {
	if p.pkg != nil {
		return p.pkg, nil
	}
	if p.checking {
		return nil, errors.New("import cycle through " + p.path)
	}
	p.checking = true
	pkg, err := s.typeCheck(p.path, p.dir, append(append([]string{}, p.bp.GoFiles...), p.bp.TestGoFiles...))
	p.pkg = pkg
	return pkg, err
}

func (s *exportScan) typeCheck(path, dir string, names []string) (*types.Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		use := s.fset.Position(id.Pos()).Filename
		if strings.HasSuffix(use, "_test.go") && filepath.Dir(use) == filepath.Dir(s.fset.Position(obj.Pos()).Filename) {
			continue // the object's own package's tests
		}
		s.uses[obj] = true
	}
	return pkg, nil
}

// unused lists the exported functions and methods declared in non-test
// files under internal/ that have no counted reference, in path order.
func (s *exportScan) unused() []*types.Func {
	ifaces := s.interfaces()
	var out []*types.Func
	consider := func(f *types.Func) {
		if f.Exported() && !s.uses[f] && !strings.HasSuffix(s.fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	for _, path := range s.order {
		if !strings.HasPrefix(path, "roarray/internal/") {
			continue
		}
		scope := s.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				consider(obj)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !implements(named, m.Name(), ifaces) {
						consider(m)
					}
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := s.fset.Position(out[i].Pos()), s.fset.Position(out[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return out
}

// interfaces gathers the package-level interface types of every package the
// module imports, directly or not, and of the module itself, plus error.
func (s *exportScan) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, path := range s.order {
		walk(s.pkgs[path].pkg)
	}
	return ifaces
}

// implements reports whether T or *T implements an interface with a method
// of that name.
func implements(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if !hasMethod(it, method) {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func funcName(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return f.Pkg().Path() + ".(" + types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + ")." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}
