package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// BackendExhaustive flags switch statements over the spill-backend
// enum (cars.Backend) that neither cover every backend nor carry a
// default clause, in the packages that branch on it. The backend set
// is the spine of the spill-policy lattice: the simulator's admission
// paths, vet's occupancy rows, and the differential's study stages all
// branch on it, and a switch that silently falls through for a
// newly-added backend is exactly the bug the enum's growth will
// produce. A switch counts as a backend switch when any of its case
// expressions resolves to a constant of type cars.Backend, and the
// full set is every such constant declared in package cars, so the
// analyzer grows with the enum. A switch that handles a strict subset
// on purpose must say so with a default clause, which also documents
// the fallback behaviour.
var BackendExhaustive = &Analyzer{
	Name: "backendexhaustive",
	Doc:  "flag non-exhaustive switches over the cars.Backend enum that lack a default clause",
	Pkgs: []string{
		"carsgo/internal/cars", "carsgo/internal/sim", "carsgo/internal/vet",
		"carsgo/internal/san", "carsgo/internal/config", "carsgo/internal/experiments",
	},
	Run: runBackendExhaustive,
}

// backendConst returns the cars.Backend constant a case expression
// names (bare or cars-qualified), or nil.
func backendConst(info *types.Info, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok {
		return nil
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Name() != "Backend" || named.Obj().Pkg().Path() != "carsgo/internal/cars" {
		return nil
	}
	return c
}

func runBackendExhaustive(p *Pass) error {
	for _, pkg := range p.Mod.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				var enum *types.Const // any backend constant the switch names
				seen := map[string]bool{}
				for _, stmt := range sw.Body.List {
					cc := stmt.(*ast.CaseClause)
					if cc.List == nil {
						return true // a default documents the fallback
					}
					for _, e := range cc.List {
						if c := backendConst(pkg.Info, e); c != nil {
							enum = c
							seen[c.Name()] = true
						}
					}
				}
				if enum == nil {
					return true
				}
				var missing []string
				scope := enum.Pkg().Scope()
				for _, name := range scope.Names() {
					c, ok := scope.Lookup(name).(*types.Const)
					if ok && types.Identical(c.Type(), enum.Type()) && !seen[name] {
						missing = append(missing, name)
					}
				}
				if len(missing) > 0 {
					p.report(sw.Pos(), "switch over cars.Backend misses %s and has no default: "+
						"handle every backend or document the fallback with a default clause", strings.Join(missing, ", "))
				}
				return true
			})
		}
	}
	return nil
}
