// LockHeld: no blocking while holding a mutex, and no lock-order
// cycles.
//
// Within each function the analyzer tracks the set of held locks
// through straight-line statement flow (branch bodies analyzed with a
// copy of the entry state; `defer mu.Unlock()` keeps the lock held to
// the end of the function, which is exactly when subsequent blocking
// operations are findings). While any lock is held it flags:
//
//   - bare channel sends/receives and receives via range-over-channel,
//   - selects with neither a default nor a cancellation case,
//   - sync.WaitGroup.Wait and time.Sleep,
//   - sync.Cond.Wait with MORE than one lock held (Wait with only its
//     own locker held is the required condition-variable idiom),
//   - file/network I/O: calls into os, os/exec, net, net/http, and
//     io/fmt writes whose target is a known-external writer (*os.File,
//     net.Conn, http.ResponseWriter),
//   - pool admission and waits: jobq Submit/SubmitWait/Do/Drain and
//     Task.Wait, and the sim entry points (carsgo.Run*, GPU.Run*) —
//     a simulation is unbounded work to hold a mutex across,
//   - re-acquiring a lock the function already holds through a callee
//     (sync.Mutex is not reentrant).
//
// Across functions it builds a lock-acquisition-order graph: an edge
// A→B each time B is acquired (directly, or via a direct callee) while
// A is held. A cycle in that graph is a potential deadlock even when
// each function looks fine in isolation. Locks are named by their
// owning struct type and field ("pkg.jobStore.mu"), so the order
// discipline is per type, not per instance — two instances of one type
// locked in both orders (the classic transfer deadlock) do cycle.
//
// False-positive policy: selects with a default or a cancellation case
// are accepted under a lock (the jobq admission-vs-drain design);
// writes to in-memory writers (strings.Builder, bytes.Buffer) are not
// I/O; deferred non-unlock calls are not analyzed; goroutine bodies
// start with an empty held set.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHeld is the held-lock blocking/ordering analyzer.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "no blocking operations while a mutex is held; no cross-package lock-acquisition-order cycles",
	Run:  runLockHeld,
}

// heldLock is one acquired lock with its acquisition site.
type heldLock struct {
	key string
	pos token.Pos
}

// lockOrderEdge records "to acquired while from was held".
type lockOrderEdge struct {
	from, to string
	pos      token.Pos
	fn       string
}

type lockAnalysis struct {
	p *Pass
	// acquires maps function keys to the lock keys they acquire
	// directly (any path), for interprocedural order edges.
	acquires map[string][]heldLock
	edges    []lockOrderEdge
}

func runLockHeld(p *Pass) error {
	a := &lockAnalysis{p: p, acquires: map[string][]heldLock{}}
	funcs := sortedFuncs(p.Facts)

	// Pass 1: direct acquisitions per function.
	for _, ff := range funcs {
		info := ff.Pkg.Info
		ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind := lockCallKind(info, call); kind == lockAcquire || kind == lockAcquireRead {
				key := lockKeyOf(info, call, ff)
				a.acquires[ff.Key] = append(a.acquires[ff.Key], heldLock{key: key, pos: call.Pos()})
			}
			return true
		})
	}

	// Pass 2: per-function held-state walk.
	for _, ff := range funcs {
		w := &lockWalker{a: a, ff: ff, info: ff.Pkg.Info}
		w.stmts(ff.Decl.Body.List, nil)
	}

	a.reportCycles()
	return nil
}

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockAcquireRead
	lockRelease
	lockReleaseRead
)

// lockCallKind classifies mu.Lock/RLock/Unlock/RUnlock calls on
// sync.Mutex/sync.RWMutex (including embedded ones).
func lockCallKind(info *types.Info, call *ast.CallExpr) lockKind {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockNone
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return lockNone
	}
	f, ok := selection.Obj().(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return lockNone
	}
	switch f.Name() {
	case "Lock":
		return lockAcquire
	case "RLock":
		return lockAcquireRead
	case "Unlock":
		return lockRelease
	case "RUnlock":
		return lockReleaseRead
	}
	return lockNone
}

// lockKeyOf canonicalizes the locked expression: struct fields become
// "ownerType.field" (instance-insensitive, so the order discipline is
// per type), package-level vars "pkg.name", locals "func:name".
func lockKeyOf(info *types.Info, call *ast.CallExpr, ff *FuncFact) string {
	sel := call.Fun.(*ast.SelectorExpr)
	target := ast.Unparen(sel.X)
	// mu embedded: t.Lock() — the selection's indirectee names the
	// owner; the field is the embedded Mutex itself.
	if selection, ok := info.Selections[sel]; ok && len(selection.Index()) > 1 {
		if named := namedOf(selection.Recv()); named != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".(embedded)"
		}
	}
	if fsel, ok := target.(*ast.SelectorExpr); ok {
		if fselection, ok := info.Selections[fsel]; ok {
			if named := namedOf(fselection.Recv()); named != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fsel.Sel.Name
			}
		}
		// Package-qualified var: pkg.mu.
		if obj, ok := info.Uses[fsel.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	if id, ok := target.(*ast.Ident); ok {
		if obj, ok := info.Uses[id].(*types.Var); ok {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return ff.Key + ":" + obj.Name()
		}
	}
	return ff.Key + ":" + types.ExprString(target)
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

// lockWalker tracks held locks through one function body.
type lockWalker struct {
	a    *lockAnalysis
	ff   *FuncFact
	info *types.Info
}

func (w *lockWalker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// stmt processes one statement, returning the held set after it.
// Branch bodies are analyzed with a copy: a release on one path does
// not clear the lock on the fall-through path.
func (w *lockWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	copyHeld := func() []heldLock { return append([]heldLock(nil), held...) }
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.expr(e, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = w.expr(e, held)
					}
				}
			}
		}
		return held
	case *ast.SendStmt:
		if len(held) > 0 {
			w.report(s.Pos(), held, "channel send")
		}
		return held
	case *ast.DeferStmt:
		// Only deferred unlocks matter: the lock stays held for the
		// rest of the function (correct — later blocking IS under it).
		// Deferred literals are scanned for unlocks they perform at
		// once (conservative: treat as not releasing mid-function).
		return held
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, nil) // fresh goroutine: nothing held
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Cond, held)
		w.stmts(s.Body.List, copyHeld())
		if s.Else != nil {
			w.stmt(s.Else, copyHeld())
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.expr(s.Cond, held)
		}
		inner := copyHeld()
		inner = w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
		return held
	case *ast.RangeStmt:
		if isChanType(w.info.Types[s.X].Type) && len(held) > 0 {
			w.report(s.Pos(), held, "range over a channel")
		}
		held = w.expr(s.X, held)
		w.stmts(s.Body.List, copyHeld())
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld())
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld())
			}
		}
		return held
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) && !selectCancellable(s) {
			w.report(s.Pos(), held, "select with neither default nor cancellation case")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyHeld())
			}
		}
		return held
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.expr(e, held)
		}
		return held
	}
	return held
}

// expr scans an expression tree in evaluation order for lock
// transitions and blocking operations.
func (w *lockWalker) expr(e ast.Expr, held []heldLock) []heldLock {
	switch e := e.(type) {
	case *ast.CallExpr:
		for _, arg := range e.Args {
			held = w.expr(arg, held)
		}
		return w.call(e, held)
	case *ast.UnaryExpr:
		held = w.expr(e.X, held)
		if e.Op == token.ARROW && len(held) > 0 {
			w.report(e.Pos(), held, "channel receive")
		}
		return held
	case *ast.BinaryExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Y, held)
	case *ast.ParenExpr:
		return w.expr(e.X, held)
	case *ast.FuncLit:
		// Inline literal definition: body runs when called; analyze
		// with an empty held set (call timing unknown).
		w.stmts(e.Body.List, nil)
		return held
	}
	return held
}

// call handles lock transitions, blocking callees, and interprocedural
// order edges/reacquisitions.
func (w *lockWalker) call(call *ast.CallExpr, held []heldLock) []heldLock {
	info := w.info
	switch lockCallKind(info, call) {
	case lockAcquire, lockAcquireRead:
		key := lockKeyOf(info, call, w.ff)
		for _, h := range held {
			w.a.edges = append(w.a.edges, lockOrderEdge{from: h.key, to: key, pos: call.Pos(), fn: w.ff.Obj.Name()})
		}
		return append(held, heldLock{key: key, pos: call.Pos()})
	case lockRelease, lockReleaseRead:
		key := lockKeyOf(info, call, w.ff)
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key {
				return append(append([]heldLock(nil), held[:i]...), held[i+1:]...)
			}
		}
		return held
	}
	if len(held) == 0 {
		return held
	}
	callee := CalleeOf(info, call)
	if callee == nil {
		return held
	}
	key := FuncKey(callee)
	switch key {
	case "(*sync.Cond).Wait":
		if len(held) > 1 {
			w.report(call.Pos(), held, "sync.Cond.Wait with an extra mutex held")
		}
		return held
	case "(*sync.WaitGroup).Wait":
		w.report(call.Pos(), held, "sync.WaitGroup.Wait")
		return held
	case "time.Sleep":
		w.report(call.Pos(), held, "time.Sleep")
		return held
	}
	if blockingPoolOrSim(key) {
		w.report(call.Pos(), held, callee.Name()+" (unbounded pool/simulation work)")
		return held
	}
	if ioUnderLock(info, callee, call) {
		w.report(call.Pos(), held, callee.Pkg().Path()+"."+callee.Name()+" (I/O)")
		return held
	}
	// Interprocedural: order edges and non-reentrant reacquisition
	// through a direct in-module callee.
	for _, acq := range w.a.acquires[key] {
		for _, h := range held {
			if h.key == acq.key {
				w.report(call.Pos(), held, "call to "+callee.Name()+", which re-acquires "+shortLock(acq.key))
			} else {
				w.a.edges = append(w.a.edges, lockOrderEdge{from: h.key, to: acq.key, pos: call.Pos(), fn: w.ff.Obj.Name()})
			}
		}
	}
	return held
}

// blockingPoolOrSim matches the serving layer's unbounded-work calls.
func blockingPoolOrSim(key string) bool {
	switch key {
	case "(*carsgo/internal/serve/jobq.Pool).Submit",
		"(*carsgo/internal/serve/jobq.Pool).SubmitWait",
		"(*carsgo/internal/serve/jobq.Pool).Do",
		"(*carsgo/internal/serve/jobq.Pool).Drain",
		"(*carsgo/internal/serve/jobq.Task).Wait",
		"carsgo.Run", "carsgo.RunContext", "carsgo.RunLTO", "carsgo.RunLTOContext",
		"(*carsgo/internal/sim.GPU).Run", "(*carsgo/internal/sim.GPU).RunContext":
		return true
	}
	return false
}

// ioUnderLock classifies file/network I/O callees. Writes through io
// and fmt count only when an argument's static type is a known
// external writer; in-memory builders are fine.
func ioUnderLock(info *types.Info, callee *types.Func, call *ast.CallExpr) bool {
	pkg := callee.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "os":
		// Process-environment reads (Getenv etc.) are memory-speed.
		switch callee.Name() {
		case "Getenv", "LookupEnv", "Environ", "Getpid", "Getwd", "Exit", "Hostname":
			return false
		}
		return true
	case "os/exec", "net":
		return true
	case "net/http":
		switch callee.Name() {
		case "Get", "Post", "Head", "PostForm", "Do":
			return true
		}
		return false
	case "io", "fmt", "bufio":
		for _, arg := range call.Args {
			if externalWriter(info.Types[arg].Type) {
				return true
			}
		}
		return false
	}
	return false
}

// externalWriter reports types whose writes leave the process.
func externalWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "os.File", "net.Conn", "net/http.ResponseWriter", "net.TCPConn", "net.UnixConn":
		return true
	}
	return false
}

func (w *lockWalker) report(pos token.Pos, held []heldLock, what string) {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = shortLock(h.key)
	}
	w.a.p.report(pos, "lockheld: %s in %s while holding %s", what, w.ff.Obj.Name(), strings.Join(names, ", "))
}

// shortLock trims the module-path noise off a lock key for messages.
func shortLock(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// reportCycles finds cycles in the acquisition-order graph and
// reports each once, at the lexicographically-first edge.
func (a *lockAnalysis) reportCycles() {
	succ := map[string]map[string]lockOrderEdge{}
	for _, e := range a.edges {
		if e.from == e.to {
			continue
		}
		if succ[e.from] == nil {
			succ[e.from] = map[string]lockOrderEdge{}
		}
		if _, ok := succ[e.from][e.to]; !ok {
			succ[e.from][e.to] = e
		}
	}
	seen := map[string]bool{}
	var nodes []string
	for n := range succ {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, start := range nodes {
		path := []string{start}
		onPath := map[string]bool{start: true}
		var dfs func(n string)
		dfs = func(n string) {
			var outs []string
			for to := range succ[n] {
				outs = append(outs, to)
			}
			sort.Strings(outs)
			for _, to := range outs {
				if to == start && len(path) > 1 {
					cyc := append(append([]string(nil), path...), start)
					key := canonicalCycle(cyc)
					if !seen[key] {
						seen[key] = true
						parts := make([]string, len(cyc))
						for i, k := range cyc {
							parts[i] = shortLock(k)
						}
						e := succ[n][to]
						a.p.report(e.pos, "lockheld: lock-order cycle %s (edge closed in %s)", strings.Join(parts, " -> "), e.fn)
					}
					continue
				}
				if onPath[to] {
					continue
				}
				path = append(path, to)
				onPath[to] = true
				dfs(to)
				path = path[:len(path)-1]
				delete(onPath, to)
			}
		}
		dfs(start)
	}
}

// canonicalCycle names a cycle independent of its starting node.
func canonicalCycle(cyc []string) string {
	body := cyc[:len(cyc)-1]
	best := ""
	for i := range body {
		rot := append(append([]string(nil), body[i:]...), body[:i]...)
		s := strings.Join(rot, "->")
		if best == "" || s < best {
			best = s
		}
	}
	return best
}
