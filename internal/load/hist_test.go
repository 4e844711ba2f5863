package load

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketOfRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose max is ≥ the value and
	// within the promised relative error.
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
		1 << 20, 1<<20 + 12345, 1 << 40, math.MaxUint64 - 1, math.MaxUint64} {
		idx := bucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		mx := bucketMax(idx)
		if mx < v {
			t.Fatalf("bucketMax(bucketOf(%d)) = %d < value", v, mx)
		}
		if v >= histSub {
			rel := float64(mx-v) / float64(v)
			if rel > 1.0/float64(histHalf)+1e-9 {
				t.Fatalf("value %d: representative %d relative error %.4f > %.4f",
					v, mx, rel, 1.0/float64(histHalf))
			}
		} else if mx != v {
			t.Fatalf("sub-64 value %d not exact: bucketMax %d", v, mx)
		}
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := uint64(0)
	for i := 0; i < histBuckets; i++ {
		mx := bucketMax(i)
		if i > 0 && mx <= prev {
			t.Fatalf("bucketMax not strictly increasing at %d: %d <= %d", i, mx, prev)
		}
		prev = mx
	}
	if bucketMax(histBuckets-1) != math.MaxUint64 {
		t.Fatalf("top bucket max = %d, want MaxUint64", bucketMax(histBuckets-1))
	}
}

// TestQuantileVsBruteForce: on a known sample set, quantiles must match
// the exact order statistic within the recorder's resolution.
func TestQuantileVsBruteForce(t *testing.T) {
	r := NewRNG(11)
	var h Hist
	samples := make([]uint64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Latency-shaped: mostly sub-ms with a heavy tail.
		v := r.Uint64() % uint64(time.Millisecond)
		if r.Pct(5) {
			v = r.Uint64() % uint64(50*time.Millisecond)
		}
		samples = append(samples, v)
		h.Observe(time.Duration(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		got := uint64(h.Quantile(q))
		if got < exact {
			t.Fatalf("q=%g: recorder %d below exact order statistic %d", q, got, exact)
		}
		if exact >= histSub {
			rel := float64(got-exact) / float64(exact)
			if rel > 1.0/float64(histHalf)+1e-9 {
				t.Fatalf("q=%g: recorder %d vs exact %d, relative error %.4f", q, got, exact, rel)
			}
		}
	}
	s := h.Summarize()
	if s.Count != 5000 {
		t.Fatalf("Count = %d, want 5000", s.Count)
	}
	if uint64(s.Min) != samples[0] {
		t.Fatalf("Min = %d, want %d", s.Min, samples[0])
	}
	if uint64(s.Max) != samples[len(samples)-1] {
		t.Fatalf("Max = %d, want %d", s.Max, samples[len(samples)-1])
	}
}

func TestHistEmptyAndNegative(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 || h.Summarize().Count != 0 {
		t.Fatal("empty recorder must read zero")
	}
	h.Observe(-5 * time.Millisecond) // clock skew guard: clamps to 0
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("negative observation recorded as %v, want 0", got)
	}
	if h.Summarize().Min != 0 {
		t.Fatalf("Min = %v, want 0", h.Summarize().Min)
	}
}

// TestQuantileNeverExceedsMax: a bucket's upper edge can lie above
// every recorded sample (126.238174 ms lands in a bucket ending at
// 127.926271 ms), yet no quantile may exceed the observed max.
func TestQuantileNeverExceedsMax(t *testing.T) {
	for _, samples := range [][]time.Duration{
		{126238174},
		{21660000, 3100000, 21500000, 9870000, 14000001},
	} {
		var h Hist
		for _, v := range samples {
			h.Observe(v)
		}
		s := h.Summarize()
		for _, q := range []time.Duration{s.P50, s.P90, s.P99, s.P999, h.Quantile(1)} {
			if q > s.Max {
				t.Fatalf("samples %v: quantile %v above max %v (summary %+v)", samples, q, s.Max, s)
			}
		}
		if s.P999 != s.Max {
			t.Fatalf("samples %v: p999 = %v, want the max %v", samples, s.P999, s.Max)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, whole Hist
	r := NewRNG(17)
	for i := 0; i < 2000; i++ {
		v := time.Duration(r.Uint64() % uint64(10*time.Millisecond))
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	sa, sw := a.Summarize(), whole.Summarize()
	if sa != sw {
		t.Fatalf("merged summary %+v != whole summary %+v", sa, sw)
	}
}

// TestHistConcurrent hammers Observe from many goroutines and checks
// exact totals — the recorder must be safe under driver concurrency.
func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := NewRNG(seed)
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(r.Uint64() % uint64(time.Second)))
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
	var bucketSum uint64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, workers*per)
	}
}
