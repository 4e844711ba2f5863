package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"carsgo"
)

// joinHeadlines joins the headline rows of the given exhibits, in their
// order, into one table.
func joinHeadlines(tables []*Table) *Table {
	h := &Table{
		ID:      "headline",
		Title:   "Paper vs. measured, one row per headline quantity",
		Columns: []string{"Quantity", "Paper", "Measured"},
	}
	for _, t := range tables {
		for _, row := range t.headline {
			h.Rows = append(h.Rows, []string{row.quantity, row.paper, row.measured})
		}
	}
	return h
}

// EXPERIMENTS.md carries each generated block between a begin and an
// end marker naming the block: an exhibit ID or "headline".
var (
	beginMarker = regexp.MustCompile(`^<!-- carsexp:begin (\S+) -->$`)
	endMarker   = regexp.MustCompile(`^<!-- carsexp:end (\S+) -->$`)
)

// splice replaces the text between each pair of markers in doc with
// the block of that ID. Every block must have exactly one pair, and
// every pair must name a block.
func splice(doc []byte, blocks map[string][]byte) ([]byte, error) {
	var out bytes.Buffer
	seen := map[string]bool{}
	open := ""
	for _, line := range strings.SplitAfter(string(doc), "\n") {
		text := strings.TrimSuffix(line, "\n")
		if m := beginMarker.FindStringSubmatch(text); m != nil {
			id := m[1]
			switch {
			case open != "":
				return nil, fmt.Errorf("marker for %q begins inside block %q", id, open)
			case seen[id]:
				return nil, fmt.Errorf("duplicate markers for %q", id)
			case blocks[id] == nil:
				return nil, fmt.Errorf("markers for unknown block %q", id)
			}
			seen[id], open = true, id
			out.WriteString(line)
			out.Write(blocks[id])
			continue
		}
		if m := endMarker.FindStringSubmatch(text); m != nil {
			if m[1] != open {
				return nil, fmt.Errorf("end marker for %q does not close block %q", m[1], open)
			}
			open = ""
		}
		if open == "" {
			out.WriteString(line)
		}
	}
	if open != "" {
		return nil, fmt.Errorf("block %q has no end marker", open)
	}
	var missing []string
	for id := range blocks {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("no markers for %v", missing)
	}
	return out.Bytes(), nil
}

// digest is the first 16 hex digits of the SHA-256 of a result's JSON.
func digest(res *carsgo.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8]), nil
}

// runLines renders the runner's memo as one sorted line per request:
// config, workload, lto, simulated cycles and the result's digest.
func (r *Runner) runLines() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lines := make([]string, 0, len(r.results))
	for q, res := range r.results {
		d, err := digest(res)
		if err != nil {
			return nil, err
		}
		lines = append(lines, fmt.Sprintf("%s %s lto=%t cycles=%d %s\n",
			q.cfgName, q.label(), q.lto, res.Stats.Cycles, d))
	}
	slices.Sort(lines)
	return []byte(strings.Join(lines, "")), nil
}

// firstDiff shows where got first departs from want, line by line.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d:\n", i+1)
	for j := i; j < i+5 && j < len(w); j++ {
		fmt.Fprintf(&b, "- %s\n", w[j])
	}
	for j := i; j < i+5 && j < len(g); j++ {
		fmt.Fprintf(&b, "+ %s\n", g[j])
	}
	return b.String()
}

func TestJoinHeadlines(t *testing.T) {
	a, b := &Table{ID: "a"}, &Table{ID: "b"}
	b.addHeadline("q1", "1x", "2x")
	a.addHeadline("q0", "p", "m")
	h := joinHeadlines([]*Table{a, {ID: "none"}, b})
	if len(h.Rows) != 2 || h.Rows[0][0] != "q0" || h.Rows[1][2] != "2x" {
		t.Errorf("headline rows = %v, want q0 then q1, in exhibit order", h.Rows)
	}
	if h.ID != "headline" || len(h.Columns) != 3 {
		t.Errorf("headline table %q has columns %v", h.ID, h.Columns)
	}
}

func TestSplice(t *testing.T) {
	blocks := map[string][]byte{"a": []byte("new a\n"), "b": []byte("new b\n")}
	doc := "intro\n<!-- carsexp:begin a -->\nold a\nold a2\n<!-- carsexp:end a -->\nprose\n" +
		"<!-- carsexp:begin b -->\n<!-- carsexp:end b -->\n"
	got, err := splice([]byte(doc), blocks)
	if err != nil {
		t.Fatal(err)
	}
	want := "intro\n<!-- carsexp:begin a -->\nnew a\n<!-- carsexp:end a -->\nprose\n" +
		"<!-- carsexp:begin b -->\nnew b\n<!-- carsexp:end b -->\n"
	if string(got) != want {
		t.Errorf("splice =\n%s\nwant\n%s", got, want)
	}
	// Splicing is idempotent.
	again, err := splice(got, blocks)
	if err != nil || !bytes.Equal(again, got) {
		t.Errorf("second splice changed the document (err %v)", err)
	}
}

func TestSpliceRejectsBadMarkers(t *testing.T) {
	blocks := map[string][]byte{"a": []byte("x\n")}
	for name, doc := range map[string]string{
		"missing":   "no markers\n",
		"duplicate": "<!-- carsexp:begin a -->\n<!-- carsexp:end a -->\n<!-- carsexp:begin a -->\n<!-- carsexp:end a -->\n",
		"unknown":   "<!-- carsexp:begin a -->\n<!-- carsexp:end a -->\n<!-- carsexp:begin z -->\n<!-- carsexp:end z -->\n",
		"unclosed":  "<!-- carsexp:begin a -->\n",
		"nested":    "<!-- carsexp:begin a -->\n<!-- carsexp:begin a -->\n<!-- carsexp:end a -->\n",
		"stray end": "<!-- carsexp:end a -->\n",
	} {
		if _, err := splice([]byte(doc), blocks); err == nil {
			t.Errorf("%s: splice accepted\n%s", name, doc)
		}
	}
}

func TestRunLinesSorted(t *testing.T) {
	r := NewRunner(1)
	r.results[request{cfgName: "V100", workload: "MST"}] = &carsgo.Result{Config: "V100", Workload: "MST"}
	r.results[request{cfgName: "V100", workload: "PTA", kernel: "PTA_K7_kernel"}] = &carsgo.Result{}
	r.results[request{cfgName: "IdealVW", workload: "FIB", lto: true}] = &carsgo.Result{}
	got, err := r.runLines()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if len(lines) != 3 || !slices.IsSorted(lines) {
		t.Fatalf("runLines =\n%s", got)
	}
	if !strings.HasPrefix(lines[2], "V100 PTA/PTA_K7_kernel lto=false cycles=0 ") {
		t.Errorf("kernel run line = %q", lines[2])
	}
	if d := strings.Fields(lines[0])[4]; len(d) != 16 {
		t.Errorf("digest %q is not 16 hex digits", d)
	}
}
