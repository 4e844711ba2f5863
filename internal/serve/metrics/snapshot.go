package metrics

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// SnapshotSchemaVersion versions the Snapshot JSON layout (the
// /metricsz document). Bump on any field rename or semantic change.
const SnapshotSchemaVersion = 1

// Snapshot is a typed point-in-time readout of a whole registry, the
// one walk over it that both endpoints encode: /metricsz as JSON and
// /metrics as Prometheus text (WriteTo). Programmatic consumers
// (carsbench, tests) read counters and histograms as data. Families
// are sorted by name and series by their rendered label sets — two
// snapshots of the same state are DeepEqual.
type Snapshot struct {
	SchemaVersion int              `json:"schemaVersion"`
	Families      []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family's readout.
type FamilySnapshot struct {
	Name       string           `json:"name"`
	Kind       string           `json:"kind"` // "counter", "gauge", "histogram"
	Help       string           `json:"help,omitempty"`
	LabelNames []string         `json:"labelNames,omitempty"`
	Series     []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series' readout. Counter and gauge
// series carry Value; histogram series carry Histogram.
type SeriesSnapshot struct {
	LabelValues []string           `json:"labelValues,omitempty"`
	Value       float64            `json:"value"`
	Histogram   *HistogramSnapshot `json:"histogram,omitempty"`
}

// HistogramSnapshot mirrors the text exposition's cumulative buckets.
type HistogramSnapshot struct {
	Buckets []BucketSnapshot `json:"buckets"`
	Sum     float64          `json:"sum"`
	Count   uint64           `json:"count"`
}

// BucketSnapshot is one cumulative bucket; the implicit +Inf bucket is
// represented with UpperBound = +Inf (JSON: the family Count covers
// it, so it is omitted from Buckets).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Snapshot reads every family atomically enough for monotonic
// consumers: each series is read under its family's lock (a counter
// never appears to decrease across snapshots), though distinct
// families are not mutually synchronized.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := slices.SortedFunc(maps.Values(r.families), func(a, b *family) int { return strings.Compare(a.name, b.name) })
	r.mu.Unlock()

	snap := Snapshot{SchemaVersion: SnapshotSchemaVersion}
	for _, f := range fams {
		snap.Families = append(snap.Families, f.snapshot())
	}
	return snap
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := FamilySnapshot{
		Name:       f.name,
		Kind:       f.kind.String(),
		Help:       f.help,
		LabelNames: slices.Clone(f.labels),
	}
	for _, k := range slices.Sorted(maps.Keys(f.series)) {
		s := f.series[k]
		ss := SeriesSnapshot{LabelValues: slices.Clone(s.values)}
		switch m := s.metric.(type) {
		case func() float64:
			ss.Value = m()
		case *Counter:
			ss.Value = m.Value()
		case *Gauge:
			ss.Value = m.Value()
		case *Histogram:
			ss.Histogram = m.snapshot()
		}
		fs.Series = append(fs.Series, ss)
	}
	return fs
}

func (h *Histogram) snapshot() *HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := &HistogramSnapshot{Sum: h.sum, Count: h.total}
	cum := uint64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i]
		hs.Buckets = append(hs.Buckets, BucketSnapshot{UpperBound: ub, Count: cum})
	}
	return hs
}

// Family returns the named family's snapshot, or nil.
func (s Snapshot) Family(name string) *FamilySnapshot {
	i := sort.Search(len(s.Families), func(i int) bool { return s.Families[i].Name >= name })
	if i < len(s.Families) && s.Families[i].Name == name {
		return &s.Families[i]
	}
	return nil
}

// Value returns the value of the series with exactly the given label
// values (none for unlabeled series), and whether it exists.
func (s Snapshot) Value(name string, labelValues ...string) (float64, bool) {
	f := s.Family(name)
	if f == nil {
		return 0, false
	}
	for _, ss := range f.Series {
		if equalStrings(ss.LabelValues, labelValues) {
			return ss.Value, true
		}
	}
	return 0, false
}

// SumWhere sums a labeled family's series values over every series
// whose named label equals value (e.g. all endpoints' 429 counts).
func (s Snapshot) SumWhere(name, labelName, labelValue string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	idx := -1
	for i, ln := range f.LabelNames {
		if ln == labelName {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	total := 0.0
	for _, ss := range f.Series {
		if idx < len(ss.LabelValues) && ss.LabelValues[idx] == labelValue {
			total += ss.Value
		}
	}
	return total
}

// Delta is the monotonic difference after−before of an unlabeled
// counter, floored at zero (a restarted daemon reads as zero growth,
// not negative).
func Delta(before, after Snapshot, name string) float64 {
	b, _ := before.Value(name)
	a, _ := after.Value(name)
	return math.Max(0, a-b)
}

// DeltaWhere is Delta over SumWhere.
func DeltaWhere(before, after Snapshot, name, labelName, labelValue string) float64 {
	return math.Max(0, after.SumWhere(name, labelName, labelValue)-before.SumWhere(name, labelName, labelValue))
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
