package lint

import (
	"go/ast"
)

// UncheckedSimError flags calls to the simulator's fallible entry
// points — (*sim.GPU).Run and RunContext, carsgo.Run and RunContext,
// and the abi.Link / abi.LinkStrict linkers — whose error result is
// discarded, in the packages that launch programs or link modules. A
// swallowed Run error silently drops a launch's faults (including
// sanitizer-adjacent traps), and a swallowed link error hands the
// simulator a nil program. Two discard shapes are findings:
//
//   - the call as a bare statement (or under go/defer), dropping every
//     result, and
//   - an assignment whose final position — the error — is the blank
//     identifier, e.g. res, _ := g.Run(l).
//
// The callee is matched as the type checker resolves it, so an
// unrelated method that happens to be named Run is not one.
var UncheckedSimError = &Analyzer{
	Name: "uncheckedsimerror",
	Doc:  "require callers of GPU.Run/RunContext, carsgo.Run/RunContext and abi.Link/LinkStrict to consume the error result",
	Pkgs: []string{
		"carsgo/internal/san", "carsgo/internal/workloads", "carsgo/internal/experiments",
		"carsgo/cmd/carsvet", "carsgo/cmd/carsim",
	},
	Run: runUncheckedSimError,
}

// simErrCalls are the watched entry points, by FuncKey, whose last
// result is an error that must not be dropped.
var simErrCalls = map[string]bool{
	"(*carsgo/internal/sim.GPU).Run":        true,
	"(*carsgo/internal/sim.GPU).RunContext": true,
	"carsgo.Run":                            true,
	"carsgo.RunContext":                     true,
	"carsgo/internal/abi.Link":              true,
	"carsgo/internal/abi.LinkStrict":        true,
}

func runUncheckedSimError(p *Pass) error {
	for _, pkg := range p.Mod.Pkgs {
		check := func(e ast.Expr, how string) {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := CalleeOf(pkg.Info, call); callee != nil && simErrCalls[FuncKey(callee)] {
				p.report(call.Pos(), "%s error %s: a dropped simulator/link error hides faults", callee.Name(), how)
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					check(n.X, "discarded (result unused)")
				case *ast.GoStmt:
					check(n.Call, "discarded (go statement)")
				case *ast.DeferStmt:
					check(n.Call, "discarded (defer statement)")
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
						return true
					}
					if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
						check(n.Rhs[0], "assigned to the blank identifier")
					}
				}
				return true
			})
		}
	}
	return nil
}
