package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// UnusedMonitorHook flags sim.Monitor hook methods with empty bodies in
// the monitor's implementations (internal/san) and its home
// (internal/sim). The monitor interface is the simulator's only event
// stream to the shadow sanitizer, and every hook exists because some
// invariant is checked against it; an implementation that silently
// swallows an event is a checker gap that no test distinguishes from a
// real consumer. A method is a finding when its name is in sim.Monitor's
// method set, as the type checker reads the interface, and its body
// contains no statements and no comment. An intentional no-op must say
// so with a comment in the body, which both silences the analyzer and
// documents the decision.
var UnusedMonitorHook = &Analyzer{
	Name: "unusedmonitorhook",
	Doc:  "flag empty-body sim.Monitor hook methods: consume the event or document the no-op",
	Pkgs: []string{"carsgo/internal/san", "carsgo/internal/sim"},
	Run:  runUnusedMonitorHook,
}

func runUnusedMonitorHook(p *Pass) error {
	monitor, err := p.Mod.lookup("carsgo/internal/sim", "Monitor")
	if err != nil {
		return err
	}
	iface, ok := monitor.Type().Underlying().(*types.Interface)
	if !ok {
		return fmt.Errorf("lint: sim.Monitor is %s, not an interface", monitor.Type().Underlying())
	}
	hooks := map[string]bool{}
	for i := range iface.NumMethods() {
		hooks[iface.Method(i).Name()] = true
	}
	for _, pkg := range p.Mod.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				if !hooks[fd.Name.Name] || len(fd.Body.List) > 0 || commentInside(file, fd.Body) {
					continue
				}
				p.report(fd.Pos(), "empty %s monitor hook swallows its event: "+
					"consume it or document the no-op with a comment in the body", fd.Name.Name)
			}
		}
	}
	return nil
}

// commentInside reports whether any comment group lies between the
// block's braces (the loader parses with ParseComments).
func commentInside(file *ast.File, body *ast.BlockStmt) bool {
	for _, cg := range file.Comments {
		if cg.Pos() > body.Lbrace && cg.End() < body.Rbrace {
			return true
		}
	}
	return false
}
