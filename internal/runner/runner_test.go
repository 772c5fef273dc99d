package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Results must land in item order regardless of completion order.
func TestMapOrdersResultsByIndex(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for _, slots := range []int{1, 3, 16} {
		out, err := Map(context.Background(), Options{Pool: NewPool(slots)}, items,
			func(_ context.Context, i, v int) (string, error) {
				// Earlier items sleep longer, so completion order inverts
				// submission order under parallelism.
				time.Sleep(time.Duration(len(items)-i) * 10 * time.Microsecond)
				return fmt.Sprintf("r%d", v), nil
			})
		if err != nil {
			t.Fatalf("slots=%d: %v", slots, err)
		}
		for i, r := range out {
			if want := fmt.Sprintf("r%d", i); r != want {
				t.Fatalf("slots=%d: out[%d] = %q, want %q", slots, i, r, want)
			}
		}
	}
}

// A panic inside a run becomes a *PanicError instead of killing the test
// binary, and other runs' results survive.
func TestMapCapturesPanics(t *testing.T) {
	// One slot: items 0 and 1 complete before 2 panics, so their
	// results must survive in the partial slice.
	out, err := Map(context.Background(), Options{Pool: NewPool(1)}, []int{0, 1, 2, 3},
		func(_ context.Context, i, v int) (int, error) {
			if v == 2 {
				panic("boom in run 2")
			}
			return v * 10, nil
		})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "boom in run 2") || !strings.Contains(pe.Error(), "runner_test.go") {
		t.Errorf("panic error lacks value or stack: %v", pe)
	}
	if out[0] != 0 || out[1] != 10 {
		t.Errorf("completed results lost: %v", out)
	}
}

// The first failure cancels the derived context so queued work is skipped,
// and the genuine error (not the cancellation) is what Map returns.
func TestMapCancelsOnFirstError(t *testing.T) {
	sentinel := errors.New("run 0 failed")
	var started atomic.Int32
	items := make([]int, 100)
	_, err := Map(context.Background(), Options{Pool: NewPool(1)}, items,
		func(ctx context.Context, i, _ int) (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, sentinel
			}
			return 0, nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Item 0 fails in the only slot; everything queued behind it must be
	// skipped without running.
	if n := started.Load(); n != 1 {
		t.Errorf("%d runs started after first error, want 1", n)
	}
}

// In-flight runs see the cancellation via their context.
func TestMapPropagatesCancellationToRuns(t *testing.T) {
	sentinel := errors.New("early failure")
	sawCancel := make(chan struct{})
	ready := make(chan struct{})
	_, err := Map(context.Background(), Options{Pool: NewPool(2)}, []int{0, 1},
		func(ctx context.Context, i, _ int) (int, error) {
			if i == 0 {
				// Fail only once run 1 is in flight, so the cancellation
				// must reach it through its context.
				<-ready
				return 0, sentinel
			}
			close(ready)
			select {
			case <-ctx.Done():
				close(sawCancel)
				return 0, ctx.Err()
			case <-time.After(5 * time.Second):
				return 0, errors.New("never cancelled")
			}
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	select {
	case <-sawCancel:
	default:
		t.Error("in-flight run did not observe cancellation")
	}
}

// A parent-context cancellation surfaces as the returned error when no run
// genuinely failed.
func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, Options{Pool: NewPool(2)}, []int{0, 1, 2},
		func(context.Context, int, int) (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A shared Pool bounds concurrency across nested Map calls without
// deadlocking: the outer fan-out has a pool of its own, and only running
// leaf items hold the shared pool's slots.
func TestMapSharedPoolBoundsNestedConcurrency(t *testing.T) {
	pool := NewPool(2)
	var inFlight, peak atomic.Int32
	leaf := func(context.Context, int, int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return 0, nil
	}
	// Outer fan-out over 4 "experiments", each fanning out 6 leaf runs on
	// the same pool.
	outer := []int{0, 1, 2, 3}
	_, err := Map(context.Background(), Options{Pool: NewPool(len(outer))}, outer,
		func(ctx context.Context, _, _ int) (int, error) {
			_, err := Map(ctx, Options{Pool: pool}, []int{0, 1, 2, 3, 4, 5}, leaf)
			return 0, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d exceeded pool size 2", p)
	}
}

// Progress fires once per run with a consistent done counter.
func TestMapProgress(t *testing.T) {
	var events []Event
	_, err := Map(context.Background(), Options{
		Pool:     NewPool(4),
		Progress: func(e Event) { events = append(events, e) },
	}, []int{0, 1, 2, 3, 4}, func(_ context.Context, i, _ int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("%d progress events, want 5", len(events))
	}
	seen := map[int]bool{}
	for k, e := range events {
		if e.Done != k+1 || e.Total != 5 {
			t.Errorf("event %d: done=%d/%d, want %d/5", k, e.Done, e.Total, k+1)
		}
		if seen[e.Index] {
			t.Errorf("index %d reported twice", e.Index)
		}
		seen[e.Index] = true
	}
}

func TestMapEmptyInput(t *testing.T) {
	out, err := Map(context.Background(), Options{}, nil,
		func(context.Context, int, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
}

func TestPoolSizeDefaults(t *testing.T) {
	if NewPool(0).Size() <= 0 {
		t.Error("default pool size not positive")
	}
	if got := NewPool(7).Size(); got != 7 {
		t.Errorf("pool size = %d, want 7", got)
	}
}

// A one-slot pool visits items strictly in index order — the property the
// -j 1 byte-identical guarantee rests on.
func TestMapSerialOrderIsIndexOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	_, err := Map(context.Background(), Options{Pool: NewPool(1)}, []int{0, 1, 2, 3, 4, 5},
		func(_ context.Context, i, _ int) (int, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial visit order %v", order)
		}
	}
}
