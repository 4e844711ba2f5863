// Package hookfix plants empty sim.Monitor hooks beside consuming and
// documented ones. The hook names come from the sim.Monitor interface
// itself. Each "case:" comment opens one case of TestUnusedMonitorHook,
// which runs to the next one.
package hookfix

// case: empty hook flagged
type empty struct{}

func (empty) WarpExit(gwid int) {} // want "empty WarpExit monitor hook swallows its event"

// case: consuming hook clean
type counting struct{ n int }

func (m *counting) WarpExit(gwid int) { m.n++ }

// case: documented no-op clean
type documented struct{}

func (documented) WarpExit(gwid int) {
	// Exits carry no state this monitor tracks.
}

// case: non-hook empty method clean
type flusher struct{}

func (flusher) Flush() {}

// case: free function with hook name clean
func WarpExit(gwid int) {}

// case: several empty hooks all flagged
type several struct{}

func (several) CallEnd(gwid, rfp, rsp int) {} // want "empty CallEnd monitor hook"

func (several) BlockRetire(sm, blockID int) {} // want "empty BlockRetire monitor hook"
