package lint

import (
	"go/ast"
	"go/types"
)

// SeededRand defends the repo's reproducibility contract: every random
// stream feeding spec generation, fuzzing, load generation, or
// simulation must come from an explicitly seeded source, so a seed
// printed in a failure report replays the exact run. Three shapes are
// findings:
//
//   - calls through math/rand's global source (rand.Intn, rand.Int63,
//     rand.Perm, rand.Shuffle, ...) — the seed is invisible at the
//     call site and, since Go 1.20, random per process;
//   - rand.New with anything but rand.NewSource(seed) — a custom
//     Source hides where its entropy came from;
//   - a seed expression that mentions time.Now — explicitly wired-in
//     wall-clock nondeterminism (rand.Seed(time.Now().UnixNano()),
//     rand.NewSource(time.Now().UnixNano())).
//
// A literal or named seed argument is fine: determinism, not secrecy,
// is the property under defense. Functions are identified by the
// callee's package (math/rand, math/rand/v2, time), whatever name the
// import goes by, so a local value named rand is never one; packages
// that avoid math/rand entirely — internal/spec's splitmix64 — never
// trip it.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc:  "require explicitly seeded random sources; forbid math/rand's global source and time-derived seeds",
	Pkgs: []string{
		"carsgo/internal/spec", "carsgo/internal/workloads", "carsgo/internal/sim",
		"carsgo/internal/experiments", "carsgo/internal/load",
		"carsgo/cmd/carsfuzz", "carsgo/cmd/carsbench",
	},
	Run: runSeededRand,
}

// globalSourceFns are the top-level math/rand functions that draw from
// the package-global source.
var globalSourceFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	// v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
	"N": true,
}

// randFunc resolves n to a call of a package-level math/rand (or v2)
// function, with the name the package goes by at the call site.
func randFunc(info *types.Info, n ast.Node) (call *ast.CallExpr, fn *types.Func, pkgName string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, nil, ""
	}
	fn = CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil, nil, ""
	}
	if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return nil, nil, ""
	}
	pkgName = fn.Pkg().Name()
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			pkgName = id.Name
		}
	}
	return call, fn, pkgName
}

// mentionsTimeNow reports whether the expression refers to time.Now
// (the canonical nondeterministic seed).
func mentionsTimeNow(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				found = true
			}
		}
		return !found
	})
	return found
}

func runSeededRand(p *Pass) error {
	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, fn, rand := randFunc(info, n)
				if fn == nil {
					return true
				}
				switch name := fn.Name(); {
				case globalSourceFns[name]:
					p.report(call.Pos(), "%s.%s draws from the package-global source; build an explicitly seeded %s.New(%s.NewSource(seed)) and thread it through", rand, name, rand, rand)
				case name == "Seed":
					if len(call.Args) == 1 && mentionsTimeNow(info, call.Args[0]) {
						p.report(call.Pos(), "%s.Seed from time.Now is nondeterministic; derive the seed from configuration so runs replay", rand)
					}
				case name == "New":
					if len(call.Args) != 1 {
						return true
					}
					src, srcFn, _ := randFunc(info, call.Args[0])
					if srcFn == nil || srcFn.Name() != "NewSource" {
						p.report(call.Pos(), "%s.New needs a visible seed: pass %s.NewSource(seed) directly, not a pre-built Source", rand, rand)
						return true
					}
					if len(src.Args) == 1 && mentionsTimeNow(info, src.Args[0]) {
						p.report(call.Pos(), "%s.NewSource from time.Now is nondeterministic; derive the seed from configuration so runs replay", rand)
					}
				}
				return true
			})
		}
	}
	return nil
}
