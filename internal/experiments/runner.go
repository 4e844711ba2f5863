// Package experiments regenerates every table and figure of the
// paper's evaluation (§V-§VI) on the simulated GPU: the workload
// characterisation (Table I), the motivation breakdown (Fig. 2), the
// headline performance and energy comparisons (Figs. 8, 15), the
// mechanism analyses (Figs. 9-14, Tables II-III), and the sensitivity
// studies (Figs. 16-18).
//
// Absolute cycle counts belong to this repo's scaled simulator, not the
// authors' testbed; the reproduction targets the shape of each result —
// who wins, by roughly what factor, and where crossovers fall.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"carsgo"
	"carsgo/internal/config"
	"carsgo/internal/serve/jobq"
	"carsgo/internal/sim"
	"carsgo/internal/workloads"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // "fig8", "tab1", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// headline holds the rows this exhibit contributes to
	// EXPERIMENTS.md's headline table (see joinHeadlines).
	headline []headlineRow
}

// headlineRow is one quantity of the headline table: the paper's value
// next to the one this exhibit measured.
type headlineRow struct{ quantity, paper, measured string }

// addHeadline appends one headline row to the table.
func (t *Table) addHeadline(quantity, paper, measured string) {
	t.headline = append(t.headline, headlineRow{quantity, paper, measured})
}

// Render prints the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s: %s\n\n", strings.ToUpper(t.ID), t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	fmt.Fprintln(w)
}

// request identifies one simulation run. A request with a kernel runs
// only that kernel's launches of the workload (PTA's per-kernel
// studies, Figs. 11 and 14).
type request struct {
	cfgName  string
	workload string
	lto      bool
	kernel   string
}

// label names the request's workload, or workload/kernel.
func (q request) label() string {
	if q.kernel != "" {
		return q.workload + "/" + q.kernel
	}
	return q.workload
}

// Runner executes and memoises simulation runs for the experiments.
// Each exhibit names its runs once, as a grid, and all simulations go
// through one bounded jobq.Pool — the fan-out is capped at the worker
// count no matter how many runs a grid stages at once.
type Runner struct {
	// Workers is the pool's parallelism (fixed at construction).
	Workers int
	// Log receives progress lines; nil silences them.
	Log io.Writer
	// Ctx, when set, bounds every simulation the runner starts (the
	// carsexp -timeout flag); nil means no deadline.
	Ctx context.Context

	pool *jobq.Pool
	// exec runs one request; tests plant a failing one.
	exec    func(context.Context, request) (*carsgo.Result, error)
	mu      sync.Mutex
	results map[request]*carsgo.Result
	errs    map[request]error
	configs map[string]sim.Config
	// clashes holds, per config name, the error of registering a
	// second, different config under that name; every request for
	// the name then fails with it.
	clashes map[string]error
}

// NewRunner builds a Runner with the given parallelism.
func NewRunner(workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	r := &Runner{
		Workers: workers,
		pool:    jobq.New(workers, workers),
		results: map[request]*carsgo.Result{},
		errs:    map[request]error{},
		configs: map[string]sim.Config{},
		clashes: map[string]error{},
	}
	r.exec = r.execute
	return r
}

// context returns the runner's base context.
func (r *Runner) context() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// defineConfig registers a named configuration lazily. Registering a
// different configuration under a name already taken makes every
// request for that name fail, since the memo could not tell the two
// apart.
func (r *Runner) defineConfig(c sim.Config) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.configs[c.Name]; !ok {
		r.configs[c.Name] = c
	} else if old != c && r.clashes[c.Name] == nil {
		r.clashes[c.Name] = fmt.Errorf("experiments: two different configs are named %q", c.Name)
	}
	return c.Name
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// column gives an exhibit's grid one run per row: the row names a
// workload, or a PTA kernel. The zero request is no run.
type column func(row string) request

// under is the column of whole-workload runs under a config.
func under(cfgName string) column {
	return func(w string) request { return request{cfgName: cfgName, workload: w} }
}

// ltoUnder is the column of fully inlined (LTO) builds under a config.
func ltoUnder(cfgName string) column {
	return func(w string) request { return request{cfgName: cfgName, workload: w, lto: true} }
}

// ptaUnder is the column of PTA kernel runs under a config: each row
// names one of PTA's kernels.
func ptaUnder(cfgName string) column {
	return func(k string) request { return request{cfgName: cfgName, workload: "PTA", kernel: k} }
}

// grid stages every run of an exhibit through the pool in one batch
// and returns the results by row, then column: cell [i][j] is
// cols[j](rows[i])'s result, nil where the column has no run. The
// first failed cell in that order is the error.
//
// Results and simulation errors are memoised for the runner's
// lifetime. A panic (a *jobq.PanicError) or a refused admission is
// not, so the next grid that names the run executes it again. A
// config-name clash fails every request of that name.
func (r *Runner) grid(rows []string, cols ...column) ([][]*carsgo.Result, error) {
	cells := make([][]request, len(rows))
	var batch []request
	for i, row := range rows {
		cells[i] = make([]request, len(cols))
		for j, col := range cols {
			if q := col(row); q != (request{}) {
				cells[i][j] = q
				batch = append(batch, q)
			}
		}
	}
	failed := r.stage(batch)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]*carsgo.Result, len(rows))
	for i, qs := range cells {
		out[i] = make([]*carsgo.Result, len(cols))
		for j, q := range qs {
			if q == (request{}) {
				continue
			}
			if err := cmp.Or(r.clashes[q.cfgName], r.errs[q], failed[q]); err != nil {
				return nil, err
			}
			out[i][j] = r.results[q]
		}
	}
	return out, nil
}

// stage runs every request of a batch without a memoised outcome, all
// at once, and returns by request the failures it does not memoise.
func (r *Runner) stage(batch []request) map[request]error {
	var missing []request
	r.mu.Lock()
	seen := map[request]bool{}
	for _, q := range batch {
		if _, ok := r.results[q]; ok || r.errs[q] != nil || r.clashes[q.cfgName] != nil || seen[q] {
			continue
		}
		seen[q] = true
		missing = append(missing, q)
	}
	r.mu.Unlock()
	failed := map[request]error{}
	ctx := r.context()
	type task struct {
		q request
		t *jobq.Task
	}
	tasks := make([]task, 0, len(missing))
	for _, q := range missing {
		t, err := r.pool.SubmitWait(ctx, func(ctx context.Context) (any, error) {
			res, err := r.exec(ctx, q)
			r.mu.Lock()
			if err != nil {
				r.errs[q] = err
			} else {
				r.results[q] = res
			}
			r.mu.Unlock()
			return nil, nil
		})
		if err != nil {
			// Admission failed (cancelled context): move on.
			failed[q] = err
			continue
		}
		tasks = append(tasks, task{q, t})
	}
	for _, tk := range tasks {
		// The job itself records its outcome; the task fails only when
		// the simulation panicked.
		if _, err := tk.t.Wait(context.Background()); err != nil {
			failed[tk.q] = err
		}
	}
	return failed
}

func (r *Runner) execute(ctx context.Context, q request) (*carsgo.Result, error) {
	r.mu.Lock()
	cfg, ok := r.configs[q.cfgName]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("experiments: unknown config %q", q.cfgName)
	}
	w, err := workloads.ByName(q.workload)
	if err != nil {
		return nil, err
	}
	r.logf("run %-10s %-12s lto=%v", q.cfgName, q.label(), q.lto)
	switch {
	case q.kernel != "":
		return runKernel(ctx, cfg, w, q.kernel)
	case q.lto:
		return carsgo.RunLTOContext(ctx, cfg, w)
	}
	return carsgo.RunContext(ctx, cfg, w)
}

// Standard configuration names used across experiments.
func (r *Runner) baseName() string { return r.defineConfig(config.V100()) }
func (r *Runner) carsName() string { return r.defineConfig(config.WithCARS(config.V100())) }
func (r *Runner) idealName() string {
	return r.defineConfig(config.IdealizedVirtualWarps(config.V100()))
}
func (r *Runner) tenMBName() string { return r.defineConfig(config.TenMBL1(config.V100())) }
func (r *Runner) allHitName() string {
	return r.defineConfig(config.AllHit(config.V100()))
}
func (r *Runner) swlName(n int) string {
	c := config.SWL(config.V100(), n)
	c.Name = fmt.Sprintf("SWL%d", n)
	return r.defineConfig(c)
}

// swlColumns is the static-wavefront-limiter sweep: one column per
// warp count of config.BestSWLCounts, the paper's sweep (§V-D).
func (r *Runner) swlColumns() []column {
	var cols []column
	for _, n := range config.BestSWLCounts {
		cols = append(cols, under(r.swlName(n)))
	}
	return cols
}

// bestSWL returns the fastest of a row's SWL cells (swlColumns). The
// unlimited baseline is an implicit candidate: a limiter that only
// hurts is simply not applied.
func bestSWL(base *carsgo.Result, swl []*carsgo.Result) *carsgo.Result {
	best := base
	for _, res := range swl {
		if res.Stats.Cycles < best.Stats.Cycles {
			best = res
		}
	}
	return best
}

// allNames lists the Table I workloads in order.
func allNames() []string { return workloads.Names() }

// fmtX formats a speedup.
func fmtX(x float64) string { return fmt.Sprintf("%.2f", x) }

// fmtPct formats a fraction as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
