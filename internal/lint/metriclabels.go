// MetricLabels: label values fed into the metrics registry must have
// bounded cardinality.
//
// Every distinct label-value tuple materializes a series that lives
// for the life of the process, so feeding a raw request key, workload
// spec, error string, or URL path into CounterFamily.With /
// HistogramFamily.With turns the registry into an unbounded leak (and
// the /metrics payload into a scrape hazard). The analyzer classifies
// each argument of a With call on the serve/metrics families:
//
// Bounded origins (accepted):
//   - constants: string literals, named consts, concatenations thereof;
//   - strconv.Itoa / Format* / Quote of anything — numeric and boolean
//     labels are assumed enumerated (status codes, worker counts);
//   - a parameter of an enclosing function, when every call site of
//     that function in the module passes a bounded origin for it
//     (resolved through the shared call-site index, depth-limited) —
//     the Server.handle(pattern, endpoint, h) idiom;
//
// everything else — request fields, map lookups, err.Error(),
// fmt.Sprintf with non-constant arguments, key.String() — is flagged.
//
// False-positive policy: the metrics package itself is exempt (its
// internal With() plumbing is schema-checked at registration);
// variadic slice-expansion (With(vals...)) is flagged unless the slice
// is provably constant, which in practice means: don't.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MetricLabels is the label-cardinality analyzer.
var MetricLabels = &Analyzer{
	Name: "metriclabels",
	Doc:  "metric label values must be bounded: constants, formatted numerics, or parameters only ever bound to constants",
	Run:  runMetricLabels,
}

const metricsPkgSuffix = "serve/metrics"

func runMetricLabels(p *Pass) error {
	for _, ff := range sortedFuncs(p.Facts) {
		if strings.HasSuffix(ff.Pkg.Path, metricsPkgSuffix) {
			continue // the registry's own plumbing
		}
		info := ff.Pkg.Info
		// Parameter references — including ones captured by enclosed
		// literals — resolve to the declaring function's parameter
		// objects, which paramOwner maps back to their call sites.
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := CalleeOf(info, n)
				if callee == nil || !isLabelVecWith(callee) {
					return true
				}
				if n.Ellipsis.IsValid() {
					p.report(n.Pos(), "metriclabels: variadic label expansion into %s.With: cardinality unprovable; pass explicit bounded values", callee.Pkg().Name())
					return true
				}
				for i, arg := range n.Args {
					if !p.bounded(ff.Pkg, arg, 3) {
						p.report(arg.Pos(), "metriclabels: unbounded label cardinality: argument %d of With is %s, not a constant, formatted numeric, or constant-bound parameter", i+1, types.ExprString(arg))
					}
				}
			}
			return true
		}
		ast.Inspect(ff.Decl.Body, walk)
	}
	return nil
}

// isLabelVecWith matches the With methods of the serve/metrics label
// families.
func isLabelVecWith(callee *types.Func) bool {
	if callee.Name() != "With" || callee.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(callee.Pkg().Path(), metricsPkgSuffix)
}

// bounded classifies a label-value expression's cardinality.
func (p *Pass) bounded(pkg *Package, e ast.Expr, depth int) bool {
	info := pkg.Info
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true // constant-folded: literals, consts, concatenations
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return p.bounded(pkg, e.X, depth) && p.bounded(pkg, e.Y, depth)
	case *ast.CallExpr:
		callee := CalleeOf(info, e)
		if callee == nil || callee.Pkg() == nil {
			return false
		}
		if callee.Pkg().Path() == "strconv" &&
			(callee.Name() == "Itoa" || callee.Name() == "Quote" || strings.HasPrefix(callee.Name(), "Format")) {
			return true
		}
		return false
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok || depth == 0 {
			return false
		}
		owner := paramOwner(p.Facts, pkg, obj)
		if owner == nil {
			return false
		}
		idx := paramIndex(owner, obj)
		if idx < 0 {
			return false
		}
		sites := p.Facts.CallSites[FuncKey(owner)]
		if len(sites) == 0 {
			return false // no known caller: cardinality unprovable
		}
		for _, site := range sites {
			if site.Call.Ellipsis.IsValid() || idx >= len(site.Call.Args) {
				return false
			}
			if !p.bounded(site.Pkg, site.Call.Args[idx], depth-1) {
				return false
			}
		}
		return true
	}
	return false
}

// paramOwner finds the declared function one of whose parameters is
// obj, searching the object's package (parameters of function
// literals resolve to no declared owner and stay unbounded — their
// call sites are dynamic).
func paramOwner(f *Facts, pkg *Package, obj *types.Var) *types.Func {
	for _, ff := range f.Funcs {
		if ff.Pkg != pkg {
			continue
		}
		sig := ff.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == obj {
				return ff.Obj
			}
		}
	}
	return nil
}

// paramIndex is obj's position in owner's parameter list, or -1.
func paramIndex(owner *types.Func, obj *types.Var) int {
	sig := owner.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}
