package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"carsgo"
	"carsgo/internal/abi"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/opt"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/vet"
)

// warmupSpecs operations run during setup, outside the timed phase.
const warmupSpecs = 48

// toolchainBench is the carsvet / carsfuzz / POST /v1/vet path: each
// operation takes one generated spec through parsing, lowering, linking
// under every ABI mode, the full verifier, the static performance
// model and the optimizer. No device is built.
type toolchainBench struct {
	specs []*spec.Spec // the pool in seeded order
	o     *oracle
}

func setupToolchain(seed uint64, o *oracle) (*toolchainBench, error) {
	pool := specPool()
	b := &toolchainBench{o: o}
	for _, i := range permutation(seed, len(pool)) {
		b.specs = append(b.specs, pool[i])
	}
	// Warm-up outside the timed phase.
	for _, s := range b.specs[:warmupSpecs] {
		if _, err := analyze(nil, -1, s); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *toolchainBench) close() {}

// analysis is one spec's toolchain output.
type analysis struct {
	reports []*vet.ProgramReport // one per toolchainModes
	certs   []opt.Certificate
}

// analyze runs one spec through the static toolchain, each exported
// call inside its own span under parent.
func analyze(tr *tracer, parent int, s *spec.Spec) (*analysis, error) {
	var doc string
	tr.timed("spec.canon", parent, func() { doc = spec.Canon(s) })
	var parsed *spec.Spec
	var err error
	tr.timed("spec.parse", parent, func() { parsed, err = spec.Parse([]byte(doc)) })
	if err != nil {
		return nil, err
	}
	var mods []*kir.Module
	tr.timed("spec.lower", parent, func() { mods = parsed.Modules() })
	shapes := make([]vet.LaunchShape, max(parsed.Launches, 1))
	for i := range shapes {
		shapes[i] = vet.LaunchShape{Kernel: parsed.KernelName(), Grid: parsed.Grid,
			Block: parsed.Block, SharedBytes: parsed.Kernel.SmemWords * 4}
	}
	machine := san.MachineParamsFor(carsgo.Baseline())
	res := &analysis{}
	for _, mode := range toolchainModes {
		var prog *isa.Program
		tr.timed("abi.link", parent, func() { prog, err = abi.Link(mode, mods...) })
		if err != nil {
			return nil, fmt.Errorf("%s: link %s: %w", parsed.Name, mode, err)
		}
		var rep *vet.ProgramReport
		tr.timed("vet.report", parent, func() { rep = vet.Report(prog) })
		tr.timed("vet.perf", parent, func() { err = vet.AnalyzePerf(rep, prog, machine, shapes) })
		if err != nil {
			return nil, fmt.Errorf("%s: perf model %s: %w", parsed.Name, mode, err)
		}
		res.reports = append(res.reports, rep)
	}
	tr.timed("opt.optimize", parent, func() { _, res.certs, err = opt.OptimizeAll(mods...) })
	if err != nil {
		return nil, fmt.Errorf("%s: optimize: %w", parsed.Name, err)
	}
	return res, nil
}

// payloads returns the oracle keys and byte forms of one analysis.
func (a *analysis) payloads(name string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for i, mode := range toolchainModes {
		data, err := json.Marshal(a.reports[i])
		if err != nil {
			return nil, err
		}
		out[vetKey(mode, name)] = data
	}
	data, err := json.Marshal(a.certs)
	if err != nil {
		return nil, err
	}
	out[optKey(name)] = data
	return out, nil
}

func (b *toolchainBench) run(_ context.Context, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	certs := 0
	for i := 0; time.Since(out.start) < budget; i++ {
		s := b.specs[i%len(b.specs)]
		root := tr.begin("toolchain.op", -1)
		t0 := time.Now()
		res, err := analyze(tr, root, s)
		d := time.Since(t0)
		tr.end(root)
		out.attempted++
		if err != nil {
			out.fail(err.Error())
			continue
		}
		payloads, err := res.payloads(s.Name)
		if err != nil {
			return nil, err
		}
		ok := true
		for key, data := range payloads {
			ok = b.o.check(key, data) && ok
		}
		if !ok {
			out.fail(s.Name + ": output differs from the pinned digest")
			continue
		}
		if i < len(b.specs) {
			certs += len(res.certs)
		}
		out.record(d, 1)
	}
	if tr != nil {
		out.layers = map[string]float64{"opt.certificates": float64(certs)}
		out.addSpanLayers(tr, "toolchain.op")
	}
	return out, nil
}
