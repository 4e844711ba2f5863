// Module loading for the analyzers. They are type-aware and
// whole-module: they need resolved types to tell a context.Context
// parameter from any other ctx-named value or sim.Monitor's hooks from
// methods that share a name, and a cross-package call graph to decide
// reachability from the serving roots. Both come from the standard
// library alone — go/parser + go/types, with the source importer for
// the standard library — so the module stays dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path ("carsgo/internal/serve"). Fixture
	// packages loaded from testdata get a synthetic path.
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the analysis unit every analyzer runs over: every package
// of the repo (or one fixture package), sharing one FileSet and one
// importer.
type Module struct {
	Root string // module root directory
	Fset *token.FileSet
	Pkgs []*Package

	imp *moduleImporter
}

// moduleImporter resolves the imports of a module's packages and of
// its fixtures. An in-module path is answered with the package the
// module type-checks itself, loaded on its first import and memoised,
// so each in-module package is checked once whether it is imported or
// walked; any other path (the standard library) goes to the source
// importer, which caches what it checks.
type moduleImporter struct {
	root, path string // module root directory and module path
	fset       *token.FileSet
	std        types.ImporterFrom
	// pkgs holds the in-module packages checked so far, by import path
	// (nil for a directory without Go files, or while one is checked).
	pkgs map[string]*Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, im.root, 0)
}

func (im *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != im.path && !strings.HasPrefix(path, im.path+"/") {
		return im.std.ImportFrom(path, dir, mode)
	}
	pkg, err := im.load(path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: import %q: no package (no Go files, or an import cycle)", path)
	}
	return pkg.Types, nil
}

// load returns the in-module package at import path, type-checking it
// on the first call.
func (im *moduleImporter) load(path string) (*Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	im.pkgs[path] = nil // an import cycle back to path finds no package
	rel := strings.TrimPrefix(strings.TrimPrefix(path, im.path), "/")
	pkg, err := im.check(filepath.Join(im.root, filepath.FromSlash(rel)), path)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path from go.mod (first "module" line).
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// newModule builds an empty module over the module at root (the
// directory holding go.mod).
func newModule(root string) (*Module, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Module{Root: root, Fset: fset, imp: &moduleImporter{
		root: root, path: modPath, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*Package{},
	}}, nil
}

// LoadModule parses and type-checks every package of the module at
// root (skipping testdata, vendor-like, and dot directories). Soft
// type errors do not abort the load: the analyzers run on the
// best-effort type information, same as go vet.
func LoadModule(root string) (*Module, error) {
	root, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	m, err := newModule(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "fuzz-corpus" || name == "scripts") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := m.imp.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.imp.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
		}
	}
	return m, nil
}

// fixture loads one fixture directory (one package) under a synthetic
// import path, for the planted-violation selftests. The fixture may
// import stdlib and in-module packages; it shares m's FileSet and
// importer, so an in-module import is type-checked once across every
// fixture.
func (m *Module) fixture(dir, syntheticPath string) (*Module, error) {
	pkg, err := m.imp.check(dir, syntheticPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: fixture %s has no Go files", dir)
	}
	return &Module{Root: m.Root, Fset: m.Fset, Pkgs: []*Package{pkg}, imp: m.imp}, nil
}

// check parses dir's non-test Go files (respecting build tags) and
// type-checks them as one package under the given import path. A dir
// with no Go files gives no package and no error.
func (im *moduleImporter) check(dir, path string) (*Package, error) {
	bctx := build.Default
	bpkg, err := bctx.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bpkg.GoFiles {
		f, perr := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, perr
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: im,
		Error:    func(error) {}, // best-effort, like go vet
	}
	tpkg, _ := conf.Check(path, im.fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s produced no package", path)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// pkgByPath returns the loaded package with the given import path.
func (m *Module) pkgByPath(path string) *Package {
	for _, p := range m.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// lookup finds a package-level object of an in-module package: in the
// module's own type-checked copy when it loaded the package, else
// through its importer (a fixture module holds only its own package).
func (m *Module) lookup(path, name string) (types.Object, error) {
	var tpkg *types.Package
	if pkg := m.pkgByPath(path); pkg != nil {
		tpkg = pkg.Types
	} else {
		var err error
		if tpkg, err = m.imp.ImportFrom(path, m.Root, 0); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	obj := tpkg.Scope().Lookup(name)
	if obj == nil {
		return nil, fmt.Errorf("lint: %s has no %s", path, name)
	}
	return obj, nil
}
