package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"carsgo"
	"carsgo/internal/workloads"
)

// sweepBench is the experiment-sweep path: registry workloads under the
// baseline and CARS configurations, one simulation at a time, through
// carsgo.RunContext. The cycle loop, mem and cars take nearly all the
// host time.
type sweepBench struct {
	ops []sweepOp // seeded order
	o   *oracle
}

type sweepOp struct {
	cfg carsgo.Config
	w   *workloads.Workload
}

func setupSweep(seed uint64, o *oracle) (*sweepBench, error) {
	var all []sweepOp
	for _, name := range sweepNames {
		w, err := carsgo.Workload(name)
		if err != nil {
			return nil, err
		}
		for _, cfg := range sweepConfigs() {
			all = append(all, sweepOp{cfg, w})
		}
	}
	b := &sweepBench{o: o}
	for _, i := range permutation(seed, len(all)) {
		b.ops = append(b.ops, all[i])
	}
	// Warm-up outside the timed phase: the cheapest simulation under
	// each configuration.
	w, err := carsgo.Workload("FIB")
	if err != nil {
		return nil, err
	}
	for _, cfg := range sweepConfigs() {
		if _, err := carsgo.RunContext(context.Background(), cfg, w); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *sweepBench) close() {}

// run simulates whole passes over the operations until the budget is
// spent. Each operation starts from a collected heap with its free
// memory returned to the system, so its cost does not depend on which
// simulation the seed put before it. The metrics come from each
// operation's median time over the passes: ops_per_s is one pass's
// warp-instructions over the sum of the medians, and the latency
// samples are the medians themselves.
func (b *sweepBench) run(ctx context.Context, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var counts kernelCounts
	var allocs *simAllocs
	if tr != nil {
		allocs = newSimAllocs()
	}
	times := make([][]float64, len(b.ops))
	winstr := make([]float64, len(b.ops))
	var total uint64
	for pass := 0; time.Since(out.start) < budget; pass++ {
		for i, op := range b.ops {
			debug.FreeOSMemory()
			res, d, err := b.simulate(ctx, tr, op, allocs)
			out.attempted++
			if err != nil {
				out.fail(err.Error())
				continue
			}
			data, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			if !b.o.check(simKey(op.cfg.Name, op.w.Name), data) {
				out.fail(fmt.Sprintf("%s/%s: result differs from the pinned digest", op.cfg.Name, op.w.Name))
				continue
			}
			if pass == 0 {
				counts.add(&res.Stats)
			}
			times[i] = append(times[i], ms(d))
			winstr[i] = float64(res.Stats.TotalInstructions())
			total += res.Stats.TotalInstructions()
		}
	}
	var summary []string
	for i, op := range b.ops {
		if len(times[i]) == 0 {
			continue
		}
		m := median(times[i])
		out.latMs = append(out.latMs, m)
		out.work += winstr[i]
		out.busy += time.Duration(m * float64(time.Millisecond))
		summary = append(summary, fmt.Sprintf("%s/%s %.0f", op.w.Name, op.cfg.Name, m))
	}
	fmt.Fprintf(os.Stderr, "sweep: median ms per simulation over %d passes: %s\n",
		out.attempted/len(b.ops), strings.Join(summary, ", "))
	if tr != nil {
		out.layers = map[string]float64{}
		counts.layers(out.layers)
		if total > 0 {
			out.layers["sim.allocs_per_winstr"] = float64(allocs.objects) / float64(total)
			out.layers["sim.bytes_per_winstr"] = float64(allocs.bytes) / float64(total)
		}
		out.addSpanLayers(tr, "sweep.op")
		simRunLayers(tr, total, out.layers)
	}
	return out, nil
}

// simulate runs one operation: carsgo.RunContext untraced, its traced
// decomposition otherwise, followed by the standalone plan timings.
func (b *sweepBench) simulate(ctx context.Context, tr *tracer, op sweepOp, allocs *simAllocs) (*carsgo.Result, time.Duration, error) {
	if tr == nil {
		t0 := time.Now()
		res, err := carsgo.RunContext(ctx, op.cfg, op.w)
		return res, time.Since(t0), err
	}
	root := tr.begin("sweep.op", -1)
	t0 := time.Now()
	res, launches, err := simulate(ctx, tr, root, "workloads.modules", op.cfg, op.w, allocs)
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		return nil, d, err
	}
	return res, d, planLaunches(tr, op.cfg, op.w, launches)
}
