// Package panicfix plants naked panics beside the two sanctioned
// shapes: the execFault throw site and re-panicking a recovered value.
// Each "case:" comment opens one case of TestNoNakedPanic, which runs
// to the next one.
package panicfix

// case: naked panic flagged
func naked() { panic("boom") } // want "naked panic on a hot path"

// case: execFault throw site allowed
type smA struct{}

func (*smA) execFault() { panic(42) }

// case: closure inside execFault allowed
type smB struct{}

func (*smB) execFault() { func() { panic(1) }() }

// case: re-panic of recovered value allowed
func rethrow() {
	defer func() {
		if r := recover(); r != nil {
			panic(r)
		}
	}()
}

// case: re-panic allowed across nested literal
func rethrowNested() {
	r := recover()
	func() { panic(r) }()
}

// case: panic of non-recovered ident flagged
func notRecovered() {
	r := 3
	panic(r) // want "naked panic on a hot path"
}

// case: recover in another function does not license
func recovers() any { return recover() }

func elsewhere(r any) { panic(r) } // want "naked panic on a hot path"

// case: two naked panics two findings
func first() { panic(1) } // want "naked panic on a hot path"

func second() { panic(2) } // want "naked panic on a hot path"

// case: local function named panic is not the builtin
func shadowed() {
	panic := func(any) {}
	panic("logged, not thrown")
}
