package jobq

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsJob(t *testing.T) {
	p := New(2, 4)
	defer p.Drain(context.Background())
	v, err := p.Do(context.Background(), func(context.Context) (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if st := p.Stats(); st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitQueueFull(t *testing.T) {
	p := New(1, 1)
	defer p.Drain(context.Background())
	block := make(chan struct{})
	// Occupy the worker, then fill the one queue slot.
	started := make(chan struct{})
	t1, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	t2, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	// Queue is now full: the next Submit must reject, not block.
	if _, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d", st.Rejected)
	}
	close(block)
	if _, err := t1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedJobExpiresWithoutRunning(t *testing.T) {
	p := New(1, 2)
	defer p.Drain(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	p.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	tk, err := p.Submit(ctx, func(context.Context) (any, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // cancelled while still queued
	close(block)
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if ran {
		t.Fatal("cancelled job still ran")
	}
	if st := p.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d", st.Expired)
	}
}

func TestRunningJobSeesDeadline(t *testing.T) {
	p := New(1, 1)
	defer p.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	v, err := p.Do(ctx, func(jctx context.Context) (any, error) {
		<-jctx.Done() // a cooperative job observes its own context
		return nil, jctx.Err()
	})
	if v != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, %v", v, err)
	}
}

func TestAbandonedWaitDoesNotStopJob(t *testing.T) {
	p := New(1, 1)
	defer p.Drain(context.Background())
	done := make(chan struct{})
	tk, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		defer close(done)
		return "late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, werr := tk.Wait(expired); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v", werr)
	}
	<-done // job still completed
	if v, err := tk.Wait(context.Background()); err != nil || v != "late" {
		t.Fatalf("second Wait = %v, %v", v, err)
	}
}

// TestConcurrentSubmitCancelDrain hammers admission, cancellation, and
// drain together; run under -race this is the pool's main soak.
func TestConcurrentSubmitCancelDrain(t *testing.T) {
	p := New(4, 8)
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%3 == 0 {
				cancel() // a third of the submissions are pre-cancelled
			} else {
				defer cancel()
			}
			tk, err := p.SubmitWait(ctx, func(jctx context.Context) (any, error) {
				select {
				case <-time.After(time.Duration(i%5) * time.Millisecond):
					return i, nil
				case <-jctx.Done():
					return nil, jctx.Err()
				}
			})
			if err != nil {
				return // rejected: cancelled while waiting for a slot, or draining
			}
			if _, err := tk.Wait(context.Background()); err == nil {
				completed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if completed.Load() == 0 {
		t.Fatal("no job completed")
	}
	// After drain every submission path must reject.
	if _, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit = %v", err)
	}
	if _, err := p.SubmitWait(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain SubmitWait = %v", err)
	}
}

func TestDrainWaitsForInFlight(t *testing.T) {
	p := New(2, 2)
	var finished atomic.Bool
	started := make(chan struct{})
	p.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		time.Sleep(30 * time.Millisecond)
		finished.Store(true)
		return nil, nil
	})
	<-started
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("drain returned before the in-flight job finished")
	}
}

func TestDrainDeadline(t *testing.T) {
	p := New(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	p.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	close(block)
	// A second drain with room to finish succeeds (idempotent).
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPanickingJobKeepsWorker(t *testing.T) {
	p := New(1, 2)
	defer p.Drain(context.Background())
	_, err := p.Do(context.Background(), func(context.Context) (any, error) {
		var m map[string]int
		m["boom"]++ // a nil-map write: a runtime panic, not an error
		return nil, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "assignment to entry in nil map") ||
		!strings.Contains(string(pe.Stack), "TestPanickingJobKeepsWorker") {
		t.Errorf("PanicError = %q with stack\n%s", pe.Error(), pe.Stack)
	}
	// The pool's only worker survived the panic and runs the next job.
	v, err := p.Do(context.Background(), func(context.Context) (any, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("job after the panic = %v, %v", v, err)
	}
	if st := p.Stats(); st.Completed != 2 || p.InFlight() != 0 {
		t.Errorf("stats = %+v, in flight %d", st, p.InFlight())
	}
}
