package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"carsgo"
	"carsgo/internal/config"
	"carsgo/internal/serve/jobq"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "figX",
		Title:   "demo",
		Columns: []string{"A", "BBBB"},
		Rows:    [][]string{{"longcell", "1"}, {"x", "2"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "FIGX: demo") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "longcell  1") {
		t.Errorf("column alignment broken:\n%s", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Errorf("note missing:\n%s", out)
	}

	buf.Reset()
	tb.Markdown(&buf)
	md := buf.String()
	if !strings.Contains(md, "| A | BBBB |") || !strings.Contains(md, "| --- | --- |") {
		t.Errorf("markdown broken:\n%s", md)
	}
}

func TestFig1IsStatic(t *testing.T) {
	r := NewRunner(1)
	tb, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 6 {
		t.Fatalf("survey rows = %d", len(tb.Rows))
	}
	// Trend: both SLOC and device functions grow monotonically enough
	// that the last row dwarfs the first (the paper's log-scale point).
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if first[3] >= last[3] && len(first[3]) >= len(last[3]) {
		t.Errorf("device-function growth not visible: %s -> %s", first[3], last[3])
	}
}

func TestRunnerIDsAndUnknown(t *testing.T) {
	r := NewRunner(1)
	ids := r.IDs()
	if len(ids) != 18 {
		t.Fatalf("%d experiments, want 18 (all paper exhibits plus the lattice and optimizer studies)", len(ids))
	}
	want := map[string]bool{"fig1": true, "fig8": true, "tab1": true, "tab2": true,
		"tab3": true, "fig14": true, "fig18": true, "fig19": true, "fig20": true}
	seen := map[string]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for id := range want {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
	if _, err := r.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunnerMemoises(t *testing.T) {
	r := NewRunner(2)
	// Fig. 1 needs no simulation; config definitions must be stable.
	n1 := r.baseName()
	n2 := r.baseName()
	if n1 != n2 {
		t.Fatal("config name not stable")
	}
	if _, err := r.Run("fig1"); err != nil {
		t.Fatal(err)
	}
}

// TestDefineConfigRefusesReusedName registers a second, different
// config under the baseline's name (a timeline config keeps its
// input's name): every request for that name must then fail with an
// error naming it, even one already memoised, and nothing may run.
func TestDefineConfigRefusesReusedName(t *testing.T) {
	r := NewRunner(1)
	base := r.baseName()
	r.baseName() // the same config again is no clash
	memo := request{cfgName: base, workload: "MST"}
	r.results[memo] = &carsgo.Result{Config: base, Workload: "MST"}
	if _, err := r.grid([]string{"MST"}, under(base)); err != nil {
		t.Fatalf("re-registering an identical config: %v", err)
	}

	r.defineConfig(config.WithTimeline(config.V100(), 2048))
	for _, w := range []string{"MST", "FIB"} {
		_, err := r.grid([]string{w}, under(base))
		if err == nil || !strings.Contains(err.Error(), `"V100"`) {
			t.Errorf("%s after a clash: err = %v, want one naming \"V100\"", w, err)
		}
	}
	if len(r.results) != 1 || len(r.errs) != 0 {
		t.Errorf("a clashing config ran: %d results, %d errors", len(r.results), len(r.errs))
	}
}

// TestPanicIsNotMemoised plants a simulation that panics: the runner
// must not memoise the panic, so each grid naming the request executes
// it again, and each returns the *jobq.PanicError, never a result.
func TestPanicIsNotMemoised(t *testing.T) {
	r := NewRunner(1)
	runs := 0
	r.exec = func(context.Context, request) (*carsgo.Result, error) {
		runs++
		panic("simulator bug")
	}
	base := r.baseName()
	for i := 1; i <= 2; i++ {
		res, err := r.grid([]string{"MST"}, under(base))
		var pe *jobq.PanicError
		if !errors.As(err, &pe) || res != nil {
			t.Fatalf("grid %d = %v, %v; want a *jobq.PanicError and no result", i, res, err)
		}
		if runs != i {
			t.Fatalf("after grid %d the request ran %d time(s)", i, runs)
		}
	}
	if len(r.errs) != 0 || len(r.results) != 0 {
		t.Errorf("a panic was memoised: %d errors, %d results", len(r.errs), len(r.results))
	}
}

func TestChartRendering(t *testing.T) {
	tb := &Table{
		ID: "figY", Title: "speedups", Columns: []string{"Workload", "CARS"},
		Rows: [][]string{{"A", "2.00"}, {"B", "0.50"}, {"GEOMEAN", "1.00"}},
	}
	var buf bytes.Buffer
	ch := &Chart{Table: tb, Column: 1, Ref: 1.0, Width: 20}
	ch.RenderChart(&buf)
	out := buf.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "2.00") {
		t.Fatalf("chart missing bars:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + 3 bars
		t.Fatalf("chart lines = %d:\n%s", len(lines), out)
	}
	// A's bar must be longer than B's.
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Fatalf("bar lengths not ordered:\n%s", out)
	}
}

func TestParseCell(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"1.23", 1.23, true},
		{"45.6%", 45.6, true},
		{"2.00x", 2.00, true},
		{" 7 ", 7, true},
		{"GEOMEAN", 0, false},
		{"-", 0, false},
	} {
		got, err := parseCell(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("parseCell(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestChartableColumn(t *testing.T) {
	tb := &Table{
		Columns: []string{"W", "num", "text"},
		Rows:    [][]string{{"A", "1.5", "note"}},
	}
	if got := ChartableColumn(tb); got != 1 {
		t.Errorf("chartable column = %d", got)
	}
	if got := ChartableColumn(&Table{}); got != -1 {
		t.Errorf("empty table column = %d", got)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cache.json"

	r := NewRunner(1)
	// Seed synthetic results directly: one whole-workload run and two
	// kernels of one workload, which the cache key must keep apart.
	r.results[request{cfgName: "V100", workload: "MST"}] = &carsgo.Result{
		Config: "V100", Workload: "MST", Output: []uint32{1, 2, 3},
	}
	for i, k := range []string{"PTA_K1_kernel", "PTA_K2_kernel"} {
		r.results[ptaUnder("V100")(k)] = &carsgo.Result{Config: "V100", Workload: "PTA/" + k, Output: []uint32{uint32(i)}}
	}
	if err := r.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(1)
	n, err := r2.LoadCache(path)
	if err != nil || n != 3 {
		t.Fatalf("load: n=%d err=%v", n, err)
	}
	if g, err := r2.grid([]string{"PTA_K2_kernel"}, ptaUnder("V100")); err != nil || g[0][0].Output[0] != 1 {
		t.Fatalf("cached kernel run: %+v, %v", g, err)
	}
	g, err := r2.grid([]string{"MST"}, under("V100"))
	if err != nil {
		t.Fatal(err)
	}
	res := g[0][0]
	if len(res.Output) != 3 || res.Output[2] != 3 {
		t.Fatalf("cached result corrupted: %+v", res)
	}
	// Missing file: fine. Corrupt file: tolerated — damaged entries are
	// skipped and recomputed, never a fatal error.
	if n, err := NewRunner(1).LoadCache(dir + "/none.json"); n != 0 || err != nil {
		t.Fatalf("missing cache: n=%d err=%v", n, err)
	}
	os.WriteFile(path, []byte("junk"), 0o644)
	if n, err := NewRunner(1).LoadCache(path); n != 0 || err != nil {
		t.Fatalf("corrupt cache: n=%d err=%v, want 0 entries and no error", n, err)
	}
}

// TestCacheCorruptEntrySkipped damages one entry of a two-entry cache
// file and checks the other entry still loads.
func TestCacheCorruptEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cache.json"

	r := NewRunner(1)
	r.results[request{cfgName: "V100", workload: "MST"}] = &carsgo.Result{
		Config: "V100", Workload: "MST", Output: []uint32{1, 2, 3},
	}
	r.results[request{cfgName: "V100", workload: "FIB"}] = &carsgo.Result{
		Config: "V100", Workload: "FIB", Output: []uint32{9},
	}
	if err := r.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 { // header + 2 entries
		t.Fatalf("cache lines = %d", len(lines))
	}
	// Flip payload bytes in the second entry; its checksum now fails.
	lines[2] = strings.Replace(lines[2], `"v":"`, `"v":"QkFE`, 1)
	os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)

	r2 := NewRunner(1)
	n, err := r2.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d entries from a half-corrupt cache, want 1", n)
	}
}
