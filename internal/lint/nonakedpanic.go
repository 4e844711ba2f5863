package lint

import (
	"go/ast"
	"go/types"
)

// NoNakedPanic forbids bare panics on the simulator's hot paths
// (internal/sim, internal/cars), where a stray panic would take down a
// whole multi-launch run instead of surfacing as a *sim.ExecError.
// Functional-execution faults are required to flow through
// (*SM).execFault, which panics a structured *ExecError that GPU.Run
// recovers into an error return. Two shapes are therefore allowed:
//
//   - any panic inside a function declaration named execFault
//     (the single sanctioned throw site), and
//   - re-panicking a recovered value — panic(r) where r was assigned
//     from recover() in the same function — which preserves real
//     simulator bugs' stack traces.
//
// panic and recover are the builtins, and r the variable, as the type
// checker resolves them: a local function named panic is not one.
var NoNakedPanic = &Analyzer{
	Name: "nonakedpanic",
	Doc:  "forbid naked panic() on simulator hot paths; faults must use execFault or re-panic a recovered value",
	Pkgs: []string{"carsgo/internal/sim", "carsgo/internal/cars"},
	Run:  runNoNakedPanic,
}

// funcCtx is one lexical function (declaration or literal) on the
// walk stack, with the variables it assigned from recover().
type funcCtx struct {
	declName  string
	recovered map[types.Object]bool
}

func runNoNakedPanic(p *Pass) error {
	panicFn, recoverFn := types.Universe.Lookup("panic"), types.Universe.Lookup("recover")
	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		calls := func(e ast.Expr, fn types.Object) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && info.Uses[id] == fn
		}
		for _, file := range pkg.Files {
			var stack []*funcCtx
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					stack = append(stack, &funcCtx{declName: n.Name.Name, recovered: map[types.Object]bool{}})
					if n.Body != nil {
						ast.Inspect(n.Body, walk)
					}
					stack = stack[:len(stack)-1]
					return false
				case *ast.FuncLit:
					stack = append(stack, &funcCtx{recovered: map[types.Object]bool{}})
					ast.Inspect(n.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				case *ast.AssignStmt:
					// r := recover() / r = recover()
					if len(n.Rhs) == 1 && calls(n.Rhs[0], recoverFn) && len(stack) > 0 {
						top := stack[len(stack)-1]
						for _, lhs := range n.Lhs {
							if id, ok := lhs.(*ast.Ident); ok {
								if obj := info.ObjectOf(id); obj != nil {
									top.recovered[obj] = true
								}
							}
						}
					}
				case *ast.CallExpr:
					if calls(n, panicFn) && !allowedPanic(info, n, stack) {
						p.report(n.Pos(), "naked panic on a hot path: fault through execFault (or re-panic a recovered value)")
					}
				}
				return true
			}
			ast.Inspect(file, walk)
		}
	}
	return nil
}

// allowedPanic implements the two sanctioned shapes, searching the
// enclosing functions innermost-first.
func allowedPanic(info *types.Info, call *ast.CallExpr, stack []*funcCtx) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].declName == "execFault" {
			return true
		}
	}
	if len(call.Args) == 1 {
		if id, ok := call.Args[0].(*ast.Ident); ok && info.Uses[id] != nil {
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].recovered[info.Uses[id]] {
					return true
				}
			}
		}
	}
	return false
}
