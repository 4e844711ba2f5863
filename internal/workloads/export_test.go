package workloads

import "carsgo/internal/spec"

// SpecOf exposes the spec a workload was built from (nil for the
// hand-written ones) to the external tests.
func SpecOf(w *Workload) *spec.Spec { return w.spec }
