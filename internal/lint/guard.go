// Syntax and type helpers shared by the carsguard analyzers (ctxflow,
// goleak, lockheld, atomicmix, metriclabels).
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// selectHasDefault reports a select with a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// selectCancellable reports a select with a cancellation-shaped case:
// a receive whose channel expression contains a call to a method
// named Done (ctx.Done(), task.Done()) or an identifier spelled like
// a done channel (done, stop, quit, closed, sigc — a signal channel
// is a process-lifetime cancellation source).
func selectCancellable(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var recv ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recv = u.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recv = u.X
				}
			}
		}
		if recv != nil && cancellationShaped(recv) {
			return true
		}
	}
	return false
}

// cancellationShaped matches channel expressions that exist to signal
// cancellation or completion.
func cancellationShaped(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "Done" {
				found = true
			}
		case *ast.Ident:
			switch strings.ToLower(n.Name) {
			case "done", "stop", "quit", "closed", "sigc", "errc":
				found = true
			}
		}
		return !found
	})
	return found
}

// calleePkgPath returns the callee's defining package path ("" when
// unresolvable or builtin).
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	callee := CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	return callee.Pkg().Path()
}

// isChanType reports whether t is (or points at) a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isWaitGroupMethod reports a method of *sync.WaitGroup.
func isWaitGroupMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
