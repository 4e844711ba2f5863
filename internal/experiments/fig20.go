package experiments

import (
	"fmt"
	"io"
	"slices"

	"carsgo/internal/abi"
	"carsgo/internal/san"
	"carsgo/internal/workloads"
)

// Fig20 regenerates the static-optimizer study (DESIGN.md §14): for
// every registry workload and ABI mode, the simulated cycles of the
// original program next to the certificate-carrying optimizer's
// output, with the rewrite count. Each cell is produced by the
// optimize→simulate differential, so a row only appears if the
// optimized program ran bit-identically and its static report did not
// degrade — the figure doubles as an oracle sweep.
func (r *Runner) Fig20() (*Table, error) {
	t := &Table{
		ID:      "fig20",
		Title:   "Certificate-carrying optimizer: simulated cycles, original vs optimized",
		Columns: []string{"Workload", "Certs", "Baseline", "CARS", "SmemSpill"},
	}
	out := io.Discard
	if r.Log != nil {
		out = r.Log
	}
	results, _, err := san.OptDiffWorkloads(r.context(), workloads.All(), out)
	if err != nil {
		return nil, err
	}
	for modes := range slices.Chunk(results, len(abi.Modes)) {
		row := []string{modes[0].Workload, fmt.Sprintf("%d", len(modes[len(modes)-1].Certs))}
		for _, res := range modes {
			if !res.OK() {
				return nil, fmt.Errorf("%s/%s: optimize→simulate differential failed: %v",
					res.Workload, res.Mode, res.Failures)
			}
			cell := "-"
			if !res.Skipped {
				delta := 0.0
				if res.CyclesOrig > 0 {
					delta = 100 * float64(res.CyclesOpt-res.CyclesOrig) / float64(res.CyclesOrig)
				}
				cell = fmt.Sprintf("%d→%d (%+.1f%%)", res.CyclesOrig, res.CyclesOpt, delta)
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"every non-'-' cell passed the soundness oracle: bit-identical outputs, clean sanitizer, non-degrading vet report",
		"cycle deltas can be positive: shrinking a function's register window raises occupancy, which reorders warp scheduling",
		"'-' marks mode/workload pairs the differential skips (recursive call graph under shared-spill, or spill frames overflowing shared memory)")
	return t, nil
}
