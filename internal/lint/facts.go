// Shared call-graph facts for the carsguard analyzers. Facts are
// built once per module and handed to every analyzer: a map from
// qualified function names to per-function facts (declared context
// parameters, static call edges, goroutine launches), plus the
// reachability queries the concurrency analyzers share. Function
// literals are attributed to their enclosing declaration — a call made
// inside a closure returned by simulateJob is, for reachability
// purposes, a call made by simulateJob.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncFact is what the suite knows about one declared function.
type FuncFact struct {
	Key  string // qualified name, e.g. (*carsgo/internal/serve/jobq.Pool).Submit
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
	// HasCtx reports a threaded context: a context.Context parameter
	// (any position, on the decl or an enclosed literal), an
	// *http.Request parameter (r.Context() is available), or a
	// receiver struct carrying a context.Context field (the
	// struct-threaded idiom, e.g. experiments.Runner.Ctx).
	HasCtx bool
	// Calls holds the keys of statically-resolved callees (including
	// calls made from enclosed function literals). Interface-method
	// calls resolve to the interface method, not implementations.
	Calls map[string]bool
	// GoCalls holds callees launched via `go` from this function.
	GoCalls map[string]bool
}

// CallSite is one statically-resolved call of a function, with the
// package it appears in (for classifying argument expressions).
type CallSite struct {
	Call *ast.CallExpr
	Pkg  *Package
}

// Facts is the shared fact base for one module.
type Facts struct {
	Mod   *Module
	Funcs map[string]*FuncFact
	// CallSites indexes every resolved call by callee key, across the
	// whole module — the label-cardinality analyzer uses it to decide
	// whether a parameter is only ever bound to constants.
	CallSites map[string][]CallSite
}

// BuildFacts walks every package and records per-function facts.
func BuildFacts(m *Module) *Facts {
	f := &Facts{Mod: m, Funcs: map[string]*FuncFact{}, CallSites: map[string][]CallSite{}}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				ff := &FuncFact{
					Key:     FuncKey(obj),
					Pkg:     pkg,
					Decl:    fd,
					Obj:     obj,
					Calls:   map[string]bool{},
					GoCalls: map[string]bool{},
				}
				ff.HasCtx = declThreadsContext(pkg.Info, fd)
				f.collectEdges(pkg, fd.Body, ff)
				f.Funcs[ff.Key] = ff
			}
		}
	}
	return f
}

// collectEdges records call and go-launch edges under n, descending
// into function literals (attributed to the enclosing declaration),
// and indexes each resolved call site.
func (f *Facts) collectEdges(pkg *Package, n ast.Node, ff *FuncFact) {
	info := pkg.Info
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if callee := CalleeOf(info, n.Call); callee != nil {
				ff.GoCalls[FuncKey(callee)] = true
			}
			// The launched literal's body (or argument expressions)
			// still contribute ordinary call edges below.
		case *ast.CallExpr:
			if callee := CalleeOf(info, n); callee != nil {
				key := FuncKey(callee)
				ff.Calls[key] = true
				f.CallSites[key] = append(f.CallSites[key], CallSite{Call: n, Pkg: pkg})
			}
		}
		return true
	})
}

// FuncKey is the canonical cross-package name of a function object:
// types.Func.FullName, which is stable across separately type-checked
// universes ("carsgo/internal/serve.New", "(*carsgo/internal/serve/jobq.Pool).Submit").
func FuncKey(obj *types.Func) string { return obj.FullName() }

// CalleeOf statically resolves a call's target function, or nil for
// dynamic calls (function values, type conversions, builtins).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (no selection entry): pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isHTTPRequestPtr reports whether t is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// signatureThreadsContext reports a ctx-capable parameter list.
func signatureThreadsContext(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if IsContextType(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

// declThreadsContext reports whether fd can reach a request context:
// a ctx/request parameter on the declaration itself, or a
// context.Context field on the receiver's struct type.
func declThreadsContext(info *types.Info, fd *ast.FuncDecl) bool {
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if signatureThreadsContext(sig) {
		return true
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if IsContextType(st.Field(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// ServeRoots returns the request-path roots the concurrency analyzers
// start from: HTTP handlers (an *http.Request parameter, or a
// function/method whose name starts with "handle"/"Handle") and every
// function of the carsd command.
func (f *Facts) ServeRoots() []string {
	var roots []string
	for key, ff := range f.Funcs {
		name := ff.Obj.Name()
		switch {
		case strings.HasSuffix(ff.Pkg.Path, "cmd/carsd"):
			roots = append(roots, key)
		case strings.HasPrefix(name, "handle") || strings.HasPrefix(name, "Handle"):
			roots = append(roots, key)
		case signatureThreadsContext(ff.Obj.Type().(*types.Signature)) &&
			hasRequestParam(ff.Obj.Type().(*types.Signature)):
			roots = append(roots, key)
		}
	}
	return roots
}

func hasRequestParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isHTTPRequestPtr(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// Reachable computes the functions reachable from roots over call and
// go-launch edges (roots included).
func (f *Facts) Reachable(roots []string) map[string]bool {
	seen := map[string]bool{}
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		if seen[key] {
			continue
		}
		seen[key] = true
		ff := f.Funcs[key]
		if ff == nil {
			continue
		}
		for callee := range ff.Calls {
			if !seen[callee] {
				queue = append(queue, callee)
			}
		}
		for callee := range ff.GoCalls {
			if !seen[callee] {
				queue = append(queue, callee)
			}
		}
	}
	return seen
}

// sortFuncFacts orders facts by declaration position for
// deterministic diagnostics.
func sortFuncFacts(ffs []*FuncFact, fset *token.FileSet) {
	sort.Slice(ffs, func(i, j int) bool {
		a, b := fset.Position(ffs[i].Decl.Pos()), fset.Position(ffs[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
}
