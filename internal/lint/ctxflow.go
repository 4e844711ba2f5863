// CtxFlow: context must flow down the request paths.
//
// Roots are the serving layer's request entry points (HTTP handlers
// and every function of cmd/carsd); reachability is over the shared
// call-graph facts. Three rules:
//
//  1. background: inside a function where a context is threaded (a
//     context.Context or *http.Request parameter on the function or an
//     enclosing literal) and that is reachable from a request root,
//     calling context.Background() or context.TODO() forks the request
//     path off the cancellation tree. Detaching lifetime on purpose is
//     spelled context.WithoutCancel(ctx), which keeps values and trace
//     attributes — the singleflight leader regression class.
//  2. runctx: calling F when F's own package declares FContext (same
//     name + "Context", context first parameter) while a context is in
//     scope discards a cancellation point the callee already offers
//     (sim.Run vs sim.RunContext, carsgo.Run vs carsgo.RunContext).
//     Applies module-wide: a context in scope is the evidence.
//  3. noctx: a function reachable from a request root that blocks —
//     bare channel send/receive, a select with neither default nor a
//     cancellation case, WaitGroup.Wait, Cond.Wait, time.Sleep, or
//     network I/O — without any context to bound it.
//
// False-positive policy: mutex Lock/Unlock is not "blocking" here
// (bounded critical sections are lockheld's domain); range-over-
// channel is a close-joined consumption idiom (goleak's domain);
// main functions may block on signals for the process lifetime;
// goroutine bodies launched with `go` are goleak's domain; a receiver
// struct holding a context.Context field counts as threading one
// (the experiments.Runner idiom); log/slog is exempt from the runctx
// rule — slog.InfoContext exists to hand trace metadata to the
// handler, not to add a cancellation point, and logging never blocks
// on the request's behalf.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow is the request-path context-propagation analyzer.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "request-reachable blocking code must thread a context.Context; no context.Background() on request paths; prefer FContext when it exists",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) error {
	reach := p.Facts.Reachable(p.Facts.ServeRoots())
	for _, ff := range sortedFuncs(p.Facts) {
		info := ff.Pkg.Info
		reachable := reach[ff.Key]
		isMain := ff.Obj.Name() == "main" && ff.Pkg.Types.Name() == "main"

		// Stack of context availability per enclosing function
		// (declaration, then literals).
		type frame struct {
			hasCtx     bool
			goLaunched bool
		}
		stack := []frame{{hasCtx: ff.HasCtx}}
		ctxInScope := func() bool {
			for _, fr := range stack {
				if fr.hasCtx {
					return true
				}
			}
			return false
		}
		inGoroutine := func() bool {
			for _, fr := range stack {
				if fr.goLaunched {
					return true
				}
			}
			return false
		}

		var goLits []*ast.FuncLit // literals launched via `go` in this decl
		ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					goLits = append(goLits, lit)
				}
			}
			return true
		})

		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				fr := frame{}
				if sig, ok := info.Types[n].Type.(*types.Signature); ok {
					fr.hasCtx = signatureThreadsContext(sig)
				}
				for _, gl := range goLits {
					if gl == n {
						fr.goLaunched = true
					}
				}
				stack = append(stack, fr)
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false

			case *ast.CallExpr:
				callee := CalleeOf(info, n)
				if callee == nil {
					return true
				}
				key := FuncKey(callee)
				// Rule 1: background/TODO under a threaded context on a
				// request path.
				if (key == "context.Background" || key == "context.TODO") &&
					reachable && ctxInScope() {
					p.report(n.Pos(), "ctxflow: %s on a request path with a context in scope; use the incoming ctx (or context.WithoutCancel(ctx) to detach lifetime but keep values)", key)
					return true
				}
				// Rule 2: a Context-taking sibling exists.
				if ctxInScope() && !strings.HasSuffix(callee.Name(), "Context") {
					if sib := contextSibling(callee); sib != "" {
						p.report(n.Pos(), "ctxflow: call %s instead of %s: a context is in scope and the callee offers a cancellable variant", sib, key)
					}
				}
				// Rule 3 (call forms): known blockers without a context.
				if reachable && !isMain && !ctxInScope() && !inGoroutine() {
					if why := blockingCall(info, n); why != "" {
						p.report(n.Pos(), "ctxflow: %s in %s, reachable from a request root, with no context to bound it", why, ff.Obj.Name())
					}
				}

			case *ast.SendStmt:
				if reachable && !isMain && !ctxInScope() && !inGoroutine() {
					p.report(n.Pos(), "ctxflow: blocking channel send in %s, reachable from a request root, with no context to bound it", ff.Obj.Name())
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && reachable && !isMain && !ctxInScope() && !inGoroutine() {
					p.report(n.Pos(), "ctxflow: blocking channel receive in %s, reachable from a request root, with no context to bound it", ff.Obj.Name())
				}
			case *ast.SelectStmt:
				if reachable && !isMain && !ctxInScope() && !inGoroutine() &&
					!selectHasDefault(n) && !selectCancellable(n) {
					p.report(n.Pos(), "ctxflow: select with neither default nor cancellation case in %s, reachable from a request root, with no context to bound it", ff.Obj.Name())
				}
				// Don't re-report the comm clauses of any select.
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							ast.Inspect(s, walk)
						}
					}
				}
				return false
			case *ast.RangeStmt:
				// range-over-channel is close-joined consumption, not an
				// unbounded block: walk only the body.
				if isChanType(info.Types[n.X].Type) {
					ast.Inspect(n.Body, walk)
					return false
				}
			}
			return true
		}
		ast.Inspect(ff.Decl.Body, walk)
	}
	return nil
}

// blockingCall classifies known-blocking call forms for rule 3.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	callee := CalleeOf(info, call)
	if callee == nil {
		return ""
	}
	switch FuncKey(callee) {
	case "(*sync.WaitGroup).Wait":
		return "sync.WaitGroup.Wait"
	case "(*sync.Cond).Wait":
		return "sync.Cond.Wait"
	case "time.Sleep":
		return "time.Sleep"
	}
	if pkg := callee.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "net":
			if strings.HasPrefix(callee.Name(), "Dial") || callee.Name() == "Listen" {
				return "net." + callee.Name()
			}
		case "net/http":
			switch callee.Name() {
			case "Get", "Post", "Head", "PostForm", "Do":
				return "net/http " + callee.Name()
			}
		}
	}
	return ""
}

// contextSibling returns the qualified name of F's FContext sibling
// (same package or method set, context.Context first parameter), or
// "" when F has none or already threads a context itself.
func contextSibling(callee *types.Func) string {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || signatureThreadsContext(sig) {
		return ""
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return ""
	}
	// slog's *Context variants carry trace metadata, not cancellation;
	// requiring them everywhere a ctx is in scope is noise.
	if pkg.Path() == "log/slog" || pkg.Path() == "log" {
		return ""
	}
	want := callee.Name() + "Context"
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, pkg, want)
		if m, ok := obj.(*types.Func); ok && firstParamIsContext(m) {
			return FuncKey(m)
		}
		return ""
	}
	if m, ok := pkg.Scope().Lookup(want).(*types.Func); ok && firstParamIsContext(m) {
		return FuncKey(m)
	}
	return ""
}

func firstParamIsContext(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return IsContextType(sig.Params().At(0).Type())
}

// sortedFuncs returns the fact base's functions in stable position
// order so diagnostics are deterministic.
func sortedFuncs(f *Facts) []*FuncFact {
	out := make([]*FuncFact, 0, len(f.Funcs))
	for _, ff := range f.Funcs {
		out = append(out, ff)
	}
	fset := f.Mod.Fset
	sortFuncFacts(out, fset)
	return out
}
