// AtomicMix: a struct field is either atomic or it is not.
//
// Module-wide, the analyzer collects every struct field whose address
// is passed to a sync/atomic function (atomic.AddInt64(&s.n, 1), ...),
// then flags every other access to the same field that bypasses the
// atomic API — a plain read tears against a concurrent atomic write,
// and the race detector only catches the interleavings the test suite
// happens to schedule. Fields are keyed by owning type and name, so
// mixing across packages is caught.
//
// False-positive policy: accesses inside the declaring package's
// constructors (functions named New* / new* / init) are exempt — the
// value is not yet shared during construction. Typed atomics
// (atomic.Int64 and friends) are immune by construction and outside
// this analyzer's scope; the fix for a finding is usually to migrate
// the field to one.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicMix is the mixed atomic/plain field-access analyzer.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "struct fields accessed via sync/atomic must not also be accessed plainly",
	Run:  runAtomicMix,
}

func runAtomicMix(p *Pass) error {
	// Pass 1: fields used atomically, and the exact selector nodes
	// that appear inside atomic calls (those are not "plain").
	atomicFields := map[string]token.Pos{} // field key -> first atomic site
	atomicSels := map[*ast.SelectorExpr]bool{}
	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := CalleeOf(info, call)
				if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if key := fieldKeyOf(info, sel); key != "" {
						if _, have := atomicFields[key]; !have {
							atomicFields[key] = sel.Pos()
						}
						atomicSels[sel] = true
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: plain accesses to those fields anywhere in the module.
	type finding struct {
		pos token.Pos
		key string
	}
	var finds []finding
	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init" {
					continue // construction: not yet shared
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || atomicSels[sel] {
						return true
					}
					key := fieldKeyOf(info, sel)
					if key == "" {
						return true
					}
					if _, atomic := atomicFields[key]; atomic {
						finds = append(finds, finding{pos: sel.Pos(), key: key})
					}
					return true
				})
			}
		}
	}
	sort.Slice(finds, func(i, j int) bool { return finds[i].pos < finds[j].pos })
	for _, f := range finds {
		p.report(f.pos, "atomicmix: plain access to %s, which is also accessed via sync/atomic (first atomic use at %s); migrate the field to a typed atomic",
			shortLock(f.key), p.Mod.Fset.Position(atomicFields[f.key]))
	}
	return nil
}

// fieldKeyOf canonicalizes a selector that resolves to a struct field
// as "pkgpath.OwnerType.field"; "" for non-field selections.
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) string {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}
