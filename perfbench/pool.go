package main

import (
	"carsgo"
	"carsgo/internal/load"
	"carsgo/internal/spec"
)

// The inputs every workload draws from. They are fixed so that oracle.json
// can pin a digest for each; the run's seed picks the order, the hot sets'
// draw sequence and which pool specs come first.
var (
	// sweepNames span the registry's host cost per warp-instruction:
	// MST under the baseline ABI is the spill-heavy end, FIB the
	// call-light end, and SVR's five launches drive the adaptive CARS
	// controller across launches.
	sweepNames = []string{"MST", "SSSP", "SVR", "COLI", "RAY", "FIB"}
	// hotRegistry are the registry names serve-hot keeps cached: cheap
	// to prefill, with result payloads from 10 KB (FIB) to 66 KB (NBD,
	// RAY).
	hotRegistry = []string{"FIB", "NBD", "RAY", "Bert_AtScore"}
)

const (
	// poolSize generated specs feed toolchain; the first servedSpecs of
	// them also serve-hot's inline specs and serve-cold's requests.
	poolSize    = 512
	servedSpecs = coldHotKeys + coldKeys
	// poolBase is the spec.Generate seed of pool entry 0.
	poolBase = 1
)

func sweepConfigs() []carsgo.Config { return []carsgo.Config{carsgo.Baseline(), carsgo.CARS()} }

// specPool returns the generated specs, in pool order.
func specPool() []*spec.Spec {
	out := make([]*spec.Spec, poolSize)
	for i := range out {
		out[i] = spec.Generate(uint64(poolBase + i))
	}
	return out
}

// permutation returns a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r := load.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
