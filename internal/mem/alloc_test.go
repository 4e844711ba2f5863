package mem

import "testing"

// countTarget counts load completions and keeps the last cycle.
type countTarget struct {
	n  int
	at int64
}

func (c *countTarget) LoadDone(cycle int64) { c.n++; c.at = cycle }

// countSink counts delivered fills.
type countSink int

func (c *countSink) Fill(now int64, lineAddr uint64, sectors uint8) { *c++ }

// missLine returns the i-th line of a walk over 1024 lines, far more
// than the test L1 holds, so every access misses it.
func missLine(i int) uint64 { return uint64(i%1024) * 128 }

// The memory path's steady state allocates nothing: a warmed L1 miss,
// its fill through RunEvents and the completion, and an L1 hit.
func TestL1LoadAllocationFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys := newTestSystem()
	l1 := newTestL1(sys, false)
	var tgt countTarget
	now := int64(0)
	i := 0
	miss := func() {
		now += 1000
		if !l1.Load(now, missLine(i), 0b0011, ClassGlobal, &tgt) {
			t.Fatal("load rejected with MSHRs free")
		}
		i++
		sys.RunEvents(now + 999)
	}
	for range 8 {
		miss() // warm the event heap and the MSHR table's waiter slices
	}
	before := tgt.n
	if got := testing.AllocsPerRun(100, miss); got != 0 {
		t.Errorf("L1 miss + fill + completion allocates %v objects, want 0", got)
	}
	if tgt.n-before != 101 || l1.PendingMSHRs() != 0 {
		t.Fatalf("completions = %d, pending MSHRs = %d", tgt.n-before, l1.PendingMSHRs())
	}
	if l1.Stats().Misses[ClassGlobal] == 0 {
		t.Fatal("the miss walk never missed")
	}

	hitLine := missLine(i - 1)
	hits := l1.Stats().Accesses[ClassGlobal] - l1.Stats().Misses[ClassGlobal]
	hit := func() {
		now++
		l1.Load(now, hitLine, 0b0011, ClassGlobal, &tgt)
	}
	if got := testing.AllocsPerRun(100, hit); got != 0 {
		t.Errorf("L1 hit allocates %v objects, want 0", got)
	}
	if got := l1.Stats().Accesses[ClassGlobal] - l1.Stats().Misses[ClassGlobal] - hits; got != 2*101 {
		t.Fatalf("hit sectors = %d, want %d", got, 2*101)
	}
}

func BenchmarkL1Load(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		sys := newTestSystem()
		l1 := newTestL1(sys, false)
		var tgt countTarget
		l1.Load(0, 0, 0b1111, ClassGlobal, &tgt)
		sys.RunEvents(1 << 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l1.Load(int64(i), 0, 0b1111, ClassGlobal, &tgt)
		}
	})
	b.Run("miss", func(b *testing.B) {
		sys := newTestSystem()
		l1 := newTestL1(sys, false)
		var tgt countTarget
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := int64(i) * 1000
			l1.Load(now, missLine(i), 0b1111, ClassGlobal, &tgt)
			sys.RunEvents(now + 999)
		}
		if tgt.n != b.N {
			b.Fatalf("completions = %d, want %d", tgt.n, b.N)
		}
	})
}

// BenchmarkEventQueue schedules and fires one event per cycle against a
// queue holding 64 to 128 pending events.
func BenchmarkEventQueue(b *testing.B) {
	const depth = 64
	s := newTestSystem()
	var sink countSink
	for i := range depth {
		s.Schedule(int64(i), &sink, 0, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		s.Schedule(now+depth+int64(i*7919%depth), &sink, uint64(i), 1)
		s.RunEvents(now)
	}
}
