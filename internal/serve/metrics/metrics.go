// Package metrics is a dependency-free Prometheus-text-format metric
// registry for the carsd daemon: counters, gauges (including callback
// gauges sampled at scrape time), and cumulative histograms, with
// optional label sets. Output is deterministic — families sort by
// name, series by their rendered label sets — so tests can assert on
// exact lines.
//
// One walk over the registry (Snapshot) feeds both encodings: the typed
// JSON document and the Prometheus text format v0.0.4, one HELP and
// TYPE line per family, then one line per series.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them on demand.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// family is one named metric with a fixed label-name schema.
type family struct {
	name    string
	help    string
	kind    familyKind
	labels  []string // label names, fixed at registration
	buckets []float64

	mu     sync.Mutex
	series map[string]*series // rendered label set -> series
}

// series is one label-value combination of a family. Its metric is a
// *Counter, *Gauge or *Histogram, or a func() float64 sampled at read
// time.
type series struct {
	values []string
	metric any
}

func (r *Registry) family(name, help string, kind familyKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		buckets: buckets, series: map[string]*series{}}
	r.families[name] = f
	return f
}

// with returns the metric of the series with the given label values,
// making it with mk when With first sees those values.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	k := labelString(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[k]
	if !ok {
		s = &series{values: slices.Clone(values), metric: mk()}
		f.series[k] = s
	}
	return s.metric
}

// setFunc makes fn the family's unlabeled series.
func (f *family) setFunc(fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[""] = &series{metric: fn}
}

// labelEscaper escapes a label value as the text format specifies.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders a label set as the text format writes it,
// {name="value",...}, escaping each value once; "" for no labels. It
// is both a series' map key and its label set in the exposition.
func labelString(names, values []string) string {
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically-increasing value.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter; negative deltas are ignored.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	for {
		old := c.bits.Load()
		v := math.Float64frombits(old) + delta
		if c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative-bucket histogram.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending; +Inf implicit
	counts  []uint64
	sum     float64
	total   uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.total++
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterFamily is a labeled counter family.
type CounterFamily struct{ f *family }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterFamily {
	return &CounterFamily{r.family(name, help, kindCounter, labels, nil)}
}

// With returns the series for the given label values.
func (cf *CounterFamily) With(values ...string) *Counter {
	return cf.f.with(values, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).with(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGauge, nil, nil).setFunc(fn)
}

// CounterFunc registers a counter whose value is sampled at scrape
// time — for monotonic counts another subsystem already maintains
// (pool and cache statistics).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, kindCounter, nil, nil).setFunc(fn)
}

// DefBuckets is the default latency bucket ladder (seconds).
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// HistogramFamily is a labeled histogram family.
type HistogramFamily struct{ f *family }

// HistogramVec registers a histogram family; nil buckets use DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramFamily {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramFamily{r.family(name, help, kindHistogram, labels, buckets)}
}

// With returns the series for the given label values.
func (hf *HistogramFamily) With(values ...string) *Histogram {
	f := hf.f
	return f.with(values, func() any {
		return &Histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets))}
	}).(*Histogram)
}

// WriteTo renders the registry's Snapshot in Prometheus text format:
// per family a HELP and a TYPE line, then one line per series, or per
// histogram series its cumulative buckets, _sum and _count.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, f := range r.Snapshot().Families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			labels := labelString(f.LabelNames, s.LabelValues)
			h := s.Histogram
			if h == nil {
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labels, fmtFloat(s.Value))
				continue
			}
			names := append(slices.Clip(f.LabelNames), "le")
			le := func(bound string) string { return labelString(names, append(slices.Clip(s.LabelValues), bound)) }
			for _, bk := range h.Buckets {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, le(fmtFloat(bk.UpperBound)), bk.Count)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, le("+Inf"), h.Count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labels, fmtFloat(h.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labels, h.Count)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler serves the registry over HTTP (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
