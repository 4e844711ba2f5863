package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// an exported function. Spans of one operation share Req, the index of
// its root span; Parent is the index of the enclosing span, or -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the timed code paths are the
// same calls either way.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its
// index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	req := len(t.spans)
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, parent int, fn func()) {
	i := t.begin(name, parent)
	fn()
	t.end(i)
}

// selfTimes returns every closed span's self time in nanoseconds — its
// duration minus the part of its interval covered by its children —
// grouped by span name.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNs(t.spans, children[i], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// coveredNs is the length of the union of the child intervals, clipped
// to [lo, hi].
func coveredNs(spans []span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s := spans[k]
		if s.End < 0 {
			continue
		}
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// durations returns every closed span's full duration in nanoseconds,
// grouped by span name.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
		}
	}
	return out
}

// covered returns how many nanoseconds of span i its children cover.
func (t *tracer) covered(i int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kids []int
	for j, s := range t.spans {
		if s.Parent == i {
			kids = append(kids, j)
		}
	}
	return float64(coveredNs(t.spans, kids, t.spans[i].Start, t.spans[i].End))
}

// childDurations maps each parent span index to the duration in
// nanoseconds of its closed child named name.
func (t *tracer) childDurations(name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name && s.Parent >= 0 && s.End >= 0 {
			out[s.Parent] = float64(s.End - s.Start)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
