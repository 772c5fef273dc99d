// Package runner is the parallel execution layer under every experiment,
// the reachsim CLI and the bench harness. Each simulation run owns its own
// core.System and event engine and shares no mutable state with any other
// run, so a full evaluation regeneration is an embarrassingly parallel
// slice of independent runs. The runner turns that observation into a
// first-class subsystem: a bounded pool of run slots with per-run panic
// capture, first-error cancellation and deterministic result ordering, so
// callers get byte-identical output whether they run one at a time or
// sixteen.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError wraps a panic recovered from a run so a misbehaving model
// surfaces as an ordinary error instead of tearing down the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: run panicked: %v\n%s", e.Value, e.Stack)
}

// Pool is a concurrency budget: Map runs an item only while it holds one
// of the pool's slots. Independent Map calls that share a Pool share its
// budget. Nested fan-outs (the CLI running every experiment, each
// experiment running its sweep) give the outer level a pool of its own and
// hand one shared Pool to every leaf fan-out, so the total number of
// in-flight simulations stays bounded at that pool's size, no matter how
// the work is nested; since only running leaf items hold its slots, the
// sharing cannot deadlock.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool admitting n concurrent runs (n <= 0 means
// GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, n)}
}

// Size reports the pool's concurrency budget.
func (p *Pool) Size() int { return cap(p.slots) }

func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() { <-p.slots }

// Options configures one Map call.
type Options struct {
	// Pool bounds how many items run at once. Nil means a private
	// NewPool(0): GOMAXPROCS slots.
	Pool *Pool
}

// Map executes fn over every item and returns the results in item order,
// regardless of completion order. It takes a pool slot for each item in
// index order and runs the item on its own goroutine while holding the
// slot, so on a one-slot pool the items run serially in index order. A
// panic inside fn is captured and converted to a *PanicError. The first
// failure cancels the derived context, so queued items are skipped (their
// error is the context's); in-flight runs are left to finish. The returned
// error is the lowest-index genuine failure, making the call deterministic
// for a given input slice. The partially filled result slice is returned
// even on error: slots whose run completed are valid.
func Map[S, R any](ctx context.Context, opts Options, items []S, fn func(ctx context.Context, index int, item S) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, ctx.Err()
	}
	errs := make([]error, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	finish := func(i int, err error) {
		errs[i] = err
		if err != nil {
			cancel()
		}
	}

	run := func(i int) {
		if err := ctx.Err(); err != nil {
			finish(i, err)
			return
		}
		defer func() {
			if v := recover(); v != nil {
				finish(i, &PanicError{Value: v, Stack: debug.Stack()})
			}
		}()
		r, err := fn(ctx, i, items[i])
		if err == nil {
			results[i] = r
		}
		finish(i, err)
	}

	pool := opts.Pool
	if pool == nil {
		pool = NewPool(0)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := pool.acquire(ctx); err != nil {
			finish(i, err)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer pool.release()
			run(i)
		}(i)
	}
	wg.Wait()

	// Deterministic error selection: the lowest-index genuine failure
	// wins; cancellation errors only surface if nothing else failed.
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return results, err
	}
	return results, firstCancel
}
