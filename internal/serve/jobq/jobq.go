// Package jobq is the shared bounded worker pool behind carsd and the
// experiment runner: a fixed set of workers drains an explicit
// admission queue of jobs, each carrying its own context.
//
// Two admission disciplines cover both users. Submit never blocks —
// a full queue is rejected with ErrQueueFull so the daemon can answer
// 429 with Retry-After (backpressure is explicit, not an unbounded
// goroutine pile-up). SubmitWait blocks until a queue slot frees (or
// the caller's context ends), which is what a batch driver like
// carsexp wants.
//
// A job whose context is already done when a worker picks it up is
// completed with the context error without running — cancelled work
// never occupies a worker. A job that panics is completed with a
// *PanicError and its worker keeps serving: one bad job must not take
// down the daemon or the batch around it.
package jobq

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrQueueFull reports that the admission queue is at capacity.
var ErrQueueFull = errors.New("jobq: admission queue full")

// ErrDraining reports that the pool no longer accepts jobs.
var ErrDraining = errors.New("jobq: pool is draining")

// PanicError is the error of a task whose job panicked: the panic value
// and the stack of the job's goroutine at the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("jobq: job panicked: %v", e.Value) }

// Job is one unit of work. The context carries the submitter's
// deadline/cancellation; implementations should return ctx.Err() when
// they observe it.
type Job func(ctx context.Context) (any, error)

// Task is a submitted job's handle.
type Task struct {
	ctx  context.Context
	job  Job
	done chan struct{}
	val  any
	err  error
}

// Wait blocks until the task completes or waitCtx ends. Abandoning a
// task does not stop it; the job sees its own submission context.
func (t *Task) Wait(waitCtx context.Context) (any, error) {
	select {
	case <-t.done:
		return t.val, t.err
	case <-waitCtx.Done():
		return nil, waitCtx.Err()
	}
}

// Done exposes the completion channel (closed when the task finished).
func (t *Task) Done() <-chan struct{} { return t.done }

func (t *Task) complete(v any, err error) {
	t.val, t.err = v, err
	close(t.done)
}

// Stats is a snapshot of the pool's cumulative counters.
type Stats struct {
	Submitted uint64 // accepted into the queue
	Rejected  uint64 // refused (full queue, draining pool, or dead ctx)
	Completed uint64 // jobs that ran to completion (any outcome, a panic included)
	Expired   uint64 // jobs whose context ended before a worker ran them
}

// Pool is a bounded worker pool with an explicit admission queue.
type Pool struct {
	queue   chan *Task
	workers int

	// admit serialises admission against the drain transition: senders
	// hold it shared, Drain takes it exclusively to flip draining, so a
	// send never races the queue close.
	admit    sync.RWMutex
	draining bool
	wg       sync.WaitGroup // outstanding tasks (queued + running)
	workerWG sync.WaitGroup

	inFlight  atomic.Int64
	submitted atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	expired   atomic.Uint64
}

// New starts a pool with the given worker count and queue capacity
// (both floored at 1).
func New(workers, queueCap int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	p := &Pool{queue: make(chan *Task, queueCap), workers: workers}
	p.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.workerWG.Done()
	for t := range p.queue {
		p.run(t)
	}
}

func (p *Pool) run(t *Task) {
	defer p.wg.Done()
	if err := t.ctx.Err(); err != nil {
		// Cancelled or expired while queued: report without running.
		p.expired.Add(1)
		t.complete(nil, err)
		return
	}
	p.inFlight.Add(1)
	v, err := call(t)
	p.inFlight.Add(-1)
	p.completed.Add(1)
	t.complete(v, err)
}

// call runs t's job, turning a panic into a *PanicError.
func call(t *Task) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return t.job(t.ctx)
}

// Submit enqueues a job without blocking. A full queue returns
// ErrQueueFull; a draining pool returns ErrDraining.
func (p *Pool) Submit(ctx context.Context, job Job) (*Task, error) {
	p.admit.RLock()
	defer p.admit.RUnlock()
	if p.draining {
		p.rejected.Add(1)
		return nil, ErrDraining
	}
	t := &Task{ctx: ctx, job: job, done: make(chan struct{})}
	p.wg.Add(1)
	select {
	case p.queue <- t:
		p.submitted.Add(1)
		return t, nil
	default:
		p.wg.Done()
		p.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// SubmitWait enqueues a job, blocking until a queue slot frees or ctx
// ends. Batch drivers use this; the daemon uses Submit. The wait for
// queue space holds up a concurrent Drain, never a worker.
func (p *Pool) SubmitWait(ctx context.Context, job Job) (*Task, error) {
	p.admit.RLock()
	defer p.admit.RUnlock()
	if p.draining {
		p.rejected.Add(1)
		return nil, ErrDraining
	}
	t := &Task{ctx: ctx, job: job, done: make(chan struct{})}
	p.wg.Add(1)
	select {
	case p.queue <- t:
		p.submitted.Add(1)
		return t, nil
	case <-ctx.Done():
		p.wg.Done()
		p.rejected.Add(1)
		return nil, ctx.Err()
	}
}

// Do submits (blocking on queue space) and waits for the result.
func (p *Pool) Do(ctx context.Context, job Job) (any, error) {
	t, err := p.SubmitWait(ctx, job)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

// Depth is the number of queued-but-not-started tasks.
func (p *Pool) Depth() int { return len(p.queue) }

// InFlight is the number of tasks currently executing.
func (p *Pool) InFlight() int { return int(p.inFlight.Load()) }

// Workers is the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// Cap is the admission-queue capacity.
func (p *Pool) Cap() int { return cap(p.queue) }

// Stats snapshots the cumulative counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Submitted: p.submitted.Load(),
		Rejected:  p.rejected.Load(),
		Completed: p.completed.Load(),
		Expired:   p.expired.Load(),
	}
}

// Drain stops admission and waits for every outstanding task (queued
// and running) to finish, or for ctx to end. The workers shut down
// once the queue empties regardless of ctx. Drain is idempotent; a
// ctx expiry only abandons the wait, not the shutdown.
func (p *Pool) Drain(ctx context.Context) error {
	p.admit.Lock()
	first := !p.draining
	p.draining = true
	p.admit.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		if first {
			close(p.queue) // workers exit once the queue is empty
		}
		p.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
