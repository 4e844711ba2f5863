// Package simerrfix plants dropped errors from the simulator's and the
// linker's fallible entry points beside consuming twins and unrelated
// calls that share their names. Each "case:" comment opens one case of
// TestUncheckedSimError, which runs to the next one.
package simerrfix

import (
	"context"

	"carsgo"
	"carsgo/internal/abi"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
)

// case: bare Run statement flagged
func bareRun(g *sim.GPU, l isa.Launch) {
	g.Run(l) // want "Run error discarded (result unused)"
}

// case: blank error flagged
func blankErr(g *sim.GPU, l isa.Launch) {
	res, _ := g.Run(l) // want "Run error assigned to the blank identifier"
	_ = res
}

// case: bare Link statement flagged
func bareLink(mode abi.Mode, m *kir.Module) {
	abi.Link(mode, m) // want "Link error discarded (result unused)"
}

// case: blank LinkStrict error flagged
func blankLinkStrict(mode abi.Mode, m *kir.Module) {
	prog, _ := abi.LinkStrict(mode, m) // want "LinkStrict error assigned to the blank identifier"
	_ = prog
}

// case: go statement flagged
func goRun(g *sim.GPU, l isa.Launch) {
	go g.Run(l) // want "Run error discarded (go statement)"
}

// case: defer statement flagged
func deferRun(g *sim.GPU, l isa.Launch) {
	defer g.Run(l) // want "Run error discarded (defer statement)"
}

// case: consumed error allowed
func consumed(g *sim.GPU, l isa.Launch) error {
	st, err := g.Run(l)
	if err != nil {
		return err
	}
	_ = st
	return nil
}

// case: error returned directly allowed
func returned(g *sim.GPU, l isa.Launch) (any, error) {
	return g.Run(l)
}

// case: blank non-error position allowed
func blankResult(g *sim.GPU, l isa.Launch) error {
	_, err := g.Run(l)
	return err
}

// case: unrelated method untouched
type renderer struct{}

func (renderer) Render(l isa.Launch) error { return nil }

func render(r renderer, l isa.Launch) {
	r.Render(l)
}

// case: plain function named Run untouched
func Run(l isa.Launch) error { return nil }

func plain(l isa.Launch) {
	Run(l)
}

// case: two discards two findings
func twice(g *sim.GPU, a, b isa.Launch) {
	g.Run(a) // want "Run error discarded (result unused)"
	g.Run(b) // want "Run error discarded (result unused)"
}

// case: RunContext discards flagged
func runContext(ctx context.Context, g *sim.GPU, l isa.Launch) {
	g.RunContext(ctx, l)           // want "RunContext error discarded (result unused)"
	res, _ := g.RunContext(ctx, l) // want "RunContext error assigned to the blank identifier"
	_ = res
}

// case: carsgo entry points flagged
func facade(ctx context.Context) {
	carsgo.Run(carsgo.CARS(), nil)                       // want "Run error discarded (result unused)"
	res, _ := carsgo.RunContext(ctx, carsgo.CARS(), nil) // want "RunContext error assigned to the blank identifier"
	_ = res
}

// case: method sharing an entry point name untouched
type job struct{}

func (job) Run() error { return nil }

func runJob(j job) {
	j.Run()
}
