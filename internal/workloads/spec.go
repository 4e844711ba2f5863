package workloads

import (
	"carsgo/internal/isa"
	"carsgo/internal/sim"
	"carsgo/internal/spec"
)

// FromSpec builds an unregistered Workload from a declarative workload
// spec (internal/spec): the bridge that lets carsim, carsexp, carsd,
// and the fuzzing harness run user- or generator-supplied scenarios
// through exactly the machinery the built-in registry uses.
func FromSpec(s *spec.Spec) *Workload {
	w := &Workload{Name: s.Name, Suite: "spec", spec: s}
	w.Modules = s.Modules
	w.Setup = func(g *sim.GPU) ([]isa.Launch, error) {
		launches, out, words, err := s.Build(g)
		if err != nil {
			return nil, err
		}
		w.setOutput(out, words)
		return launches, nil
	}
	return w
}
