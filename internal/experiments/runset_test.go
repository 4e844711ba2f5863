package experiments

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"carsgo"
	"carsgo/internal/stats"
)

// runSet lists every runner-backed exhibit with the number of
// simulations it runs on a fresh runner. Fig. 1 is static and Fig. 20
// runs through the optimize→simulate differential, not the runner.
var runSet = []struct {
	id   string
	runs int
}{
	{"fig2", 22}, {"tab1", 22}, {"fig8", 220}, {"fig9", 44}, {"fig10", 66},
	{"fig11", 2}, {"fig12", 44}, {"fig13", 44}, {"tab2", 220}, {"fig14", 48},
	{"tab3", 22}, {"fig15", 220}, {"fig16", 66}, {"fig17", 176}, {"fig18", 88},
	{"fig19", 84},
}

// fakeRuns plants an exec on r that simulates nothing: it counts each
// request it is handed and answers with a one-launch result.
func fakeRuns(r *Runner) *atomic.Int64 {
	var n atomic.Int64
	r.exec = func(_ context.Context, q request) (*carsgo.Result, error) {
		n.Add(1)
		st := &stats.Kernel{Cycles: 1}
		return &carsgo.Result{Config: q.cfgName, Workload: q.label(),
			Stats: *st, PerLaunch: []*stats.Kernel{st}}, nil
	}
	return &n
}

// TestRunSet pins the simulations the exhibits run, without running
// any. Every runner-backed exhibit on one runner must memoise exactly
// the runs of testdata/runs.golden, each executed once; each exhibit
// alone on a fresh runner must execute exactly its own count.
func TestRunSet(t *testing.T) {
	r := NewRunner(2)
	ids := []string{"fig1", "fig20"}
	for _, e := range runSet {
		ids = append(ids, e.id)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, slices.Sorted(slices.Values(r.IDs()))) {
		t.Fatalf("runSet and fig1, fig20 name %v; the runner has %v", ids, r.IDs())
	}

	all := fakeRuns(r)
	for _, e := range runSet {
		if _, err := r.Run(e.id); err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
	}
	var got []string
	for q := range r.results {
		got = append(got, fmt.Sprintf("%s %s lto=%t", q.cfgName, q.label(), q.lto))
	}
	slices.Sort(got)
	golden, err := os.ReadFile("testdata/runs.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		want = append(want, strings.Join(strings.Fields(line)[:3], " "))
	}
	if !slices.Equal(got, want) {
		t.Errorf("the exhibits ran %d distinct simulations, runs.golden has %d; %s",
			len(got), len(want), firstDiff([]byte(strings.Join(want, "\n")), []byte(strings.Join(got, "\n"))))
	}
	if n := all.Load(); n != int64(len(got)) {
		t.Errorf("%d distinct simulations executed %d times", len(got), n)
	}

	for _, e := range runSet {
		r := NewRunner(2)
		n := fakeRuns(r)
		if _, err := r.Run(e.id); err != nil {
			t.Fatalf("%s alone: %v", e.id, err)
		}
		if n.Load() != int64(e.runs) {
			t.Errorf("%s alone executed %d simulations, want %d", e.id, n.Load(), e.runs)
		}
	}
}
