// GoLeak: every goroutine needs a join or cancellation path.
//
// A `go` statement is a finding unless the launched body (the literal,
// or the named callee's declaration when it is in-module, descending
// one call level through the shared facts) shows one of the accepted
// lifecycle disciplines:
//
//   - it touches a context.Context (a ctx-typed value referenced or
//     passed on — cancellation can reach it),
//   - it receives from, ranges over, selects on, sends to, or closes a
//     channel (consumption ends on close; a send/close is a completion
//     signal some joiner observes),
//   - it drives a sync.WaitGroup (Done/Wait/Add),
//   - the named callee itself takes a context parameter.
//
// False-positive policy: a send/close is trusted as a join signal
// without proving the receiver exists — an abandoned-receiver leak is
// a dataflow property this analyzer does not chase. What it catches is
// the fire-and-forget worker: `go func() { for { ... } }()` with no
// channel, no context, and no WaitGroup, which nothing can ever drain.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak is the goroutine-lifecycle analyzer.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "goroutines must have a cancellation/done/drain path: a context, a channel discipline, or a WaitGroup",
	Run:  runGoLeak,
}

func runGoLeak(p *Pass) error {
	for _, ff := range sortedFuncs(p.Facts) {
		info := ff.Pkg.Info
		ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if !p.bodyJoined(ff.Pkg, lit.Body, 1) {
					p.report(g.Pos(), "goleak: goroutine in %s has no cancellation or join path (no context, channel, or WaitGroup ties it to a drain)", ff.Obj.Name())
				}
				return true
			}
			callee := CalleeOf(info, g.Call)
			if callee == nil {
				return true // dynamic launch: unknown body, stay silent
			}
			target := p.Facts.Funcs[FuncKey(callee)]
			if target == nil {
				return true // out-of-module callee: stay silent
			}
			if target.HasCtx || p.bodyJoined(target.Pkg, target.Decl.Body, 1) {
				return true
			}
			p.report(g.Pos(), "goleak: goroutine %s launched from %s has no cancellation or join path (no context, channel, or WaitGroup ties it to a drain)", callee.Name(), ff.Obj.Name())
			return true
		})
	}
	return nil
}

// bodyJoined reports whether a goroutine body shows an accepted
// lifecycle discipline, descending `depth` further levels into
// in-module callees.
func (p *Pass) bodyJoined(pkg *Package, body ast.Node, depth int) bool {
	info := pkg.Info
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if tv, ok := info.Types[n]; ok && tv.Type != nil && IsContextType(tv.Type) {
				joined = true
			}
		case *ast.SelectorExpr:
			if tv, ok := info.Types[n]; ok && tv.Type != nil && IsContextType(tv.Type) {
				joined = true
			}
			switch n.Sel.Name {
			case "Done", "Wait", "Add":
				if sel, ok := info.Selections[n]; ok {
					if f, ok := sel.Obj().(*types.Func); ok && isWaitGroupMethod(f) {
						joined = true
					}
				}
			}
		case *ast.SelectStmt:
			joined = true
		case *ast.SendStmt:
			joined = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joined = true
			}
		case *ast.RangeStmt:
			if isChanType(info.Types[n.X].Type) {
				joined = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && id.Obj == nil {
				joined = true
				return false
			}
			if depth > 0 {
				if callee := CalleeOf(info, n); callee != nil {
					if target := p.Facts.Funcs[FuncKey(callee)]; target != nil {
						if target.HasCtx || p.bodyJoined(target.Pkg, target.Decl.Body, depth-1) {
							joined = true
						}
					}
				}
			}
		}
		return !joined
	})
	return joined
}
