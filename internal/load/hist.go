package load

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is an HDR-style log-linear latency recorder: values (latencies
// in nanoseconds) land in buckets whose width doubles every power of
// two but which are split into 2^histHalfBits linear sub-buckets, so
// every recorded value is representable within a relative error of
// 2^-histHalfBits (≤ 3.2% with the default 32 sub-buckets per octave)
// while the whole table stays a fixed ~2k-counter array. Observe is
// atomic (no lock, safe under any driver concurrency), and quantiles
// are rank-exact over the recorded counts at that resolution: P(q) is
// the bucket holding the ⌈q·count⌉-th smallest sample, reported as the
// bucket's upper edge so estimates never understate.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	maxNs  atomic.Uint64
	minNs  atomic.Uint64 // offset by +1 so zero means "empty"
}

const (
	histSubBits  = 6                // 2^6 exact values below the first octave
	histHalfBits = histSubBits - 1  // 32 sub-buckets per octave above it
	histSub      = 1 << histSubBits // 64
	histHalf     = 1 << histHalfBits
	// Octaves above the linear range: value bit-lengths 7..64.
	histOctaves = 64 - histSubBits
	histBuckets = histSub + histOctaves*histHalf
)

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	k := bits.Len64(v) - histSubBits // shift putting v>>k in [histHalf, histSub)
	return histSub + (k-1)*histHalf + int(v>>uint(k)) - histHalf
}

// bucketMax is the largest value a bucket holds (the reported
// representative, so quantiles never understate).
func bucketMax(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	k := (idx-histSub)/histHalf + 1
	off := uint64((idx-histSub)%histHalf) + histHalf
	return (off+1)<<uint(k) - 1
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	v := uint64(max(d, 0))
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.maxNs.Load()
		if v <= old || h.maxNs.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.minNs.Load()
		if (old != 0 && v+1 >= old) || h.minNs.CompareAndSwap(old, v+1) {
			break
		}
	}
}

// Count is the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Merge folds other's samples into h (for per-worker recorders).
func (h *Hist) Merge(other *Hist) {
	for i := range other.counts {
		if n := other.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		old, v := h.maxNs.Load(), other.maxNs.Load()
		if v <= old || h.maxNs.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old, v := h.minNs.Load(), other.minNs.Load()
		if v == 0 || (old != 0 && v >= old) || h.minNs.CompareAndSwap(old, v) {
			break
		}
	}
}

// Quantile returns the latency at quantile q ∈ [0,1]: the bucket upper
// edge of the ⌈q·count⌉-th smallest sample (q=0 → first sample's
// bucket), clamped to the observed max so no quantile exceeds it. Zero
// when the recorder is empty.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(min(bucketMax(i), h.maxNs.Load()))
		}
	}
	return time.Duration(h.maxNs.Load())
}

// Summary is the recorder's headline numbers, ready for a report.
type Summary struct {
	Count uint64
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// Summarize snapshots the recorder.
func (h *Hist) Summarize() Summary {
	s := Summary{Count: h.count.Load(), Max: time.Duration(h.maxNs.Load())}
	if s.Count == 0 {
		return s
	}
	if mn := h.minNs.Load(); mn > 0 {
		s.Min = time.Duration(mn - 1)
	}
	s.Mean = time.Duration(h.sum.Load() / s.Count)
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	s.P999 = h.Quantile(0.999)
	return s
}
