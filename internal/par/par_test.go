package par

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4, 100); got != 4 {
		t.Errorf("Workers(4, 100) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Errorf("Workers(8, 3) = %d", got)
	}
	if got := Workers(0, 1); got != 1 {
		t.Errorf("Workers(0, 1) = %d", got)
	}
	if got := Workers(-1, 2); got < 1 || got > 2 {
		t.Errorf("Workers(-1, 2) = %d", got)
	}
}

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		const n = 1000
		hits := make([]int32, n)
		err := DoCtx(context.Background(), workers, n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestDoWorkerLocalState(t *testing.T) {
	// Each worker's state must be private: concurrent unsynchronized
	// mutation would trip the race detector if states were shared.
	type scratch struct{ sum int }
	var created atomic.Int32
	const n = 500
	err := DoCtx(context.Background(), 4, n, func() *scratch {
		created.Add(1)
		return &scratch{}
	}, func(s *scratch, i int) error {
		s.sum += i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := created.Load(); c < 1 || c > 4 {
		t.Fatalf("created %d states, want 1..4", c)
	}
}

func TestDoZeroTasks(t *testing.T) {
	called := false
	err := DoCtx(context.Background(), 4, 0, func() struct{} { called = true; return struct{}{} }, func(struct{}, int) error {
		t.Fatal("task ran for n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("state constructed for n=0")
	}
}

func TestDoErrReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := DoCtx(context.Background(), workers, 100, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
			if i == 13 || i == 77 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 13 failed" {
			t.Fatalf("workers=%d: got %v, want task 13's error", workers, err)
		}
	}
	if err := DoCtx(context.Background(), 4, 50, func() struct{} { return struct{}{} }, func(struct{}, int) error { return nil }); err != nil {
		t.Fatalf("all-success returned %v", err)
	}
	if err := DoCtx(context.Background(), 4, 0, func() struct{} { return struct{}{} }, func(struct{}, int) error { return fmt.Errorf("x") }); err != nil {
		t.Fatalf("n=0 returned %v", err)
	}
}

func TestDoCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := DoCtx(ctx, 0, 100, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d tasks ran on a pre-canceled context", ran)
	}
}

func TestDoCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100000
	ran := int32(0)
	err := DoCtx(ctx, 2, n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is checked between tasks, so only a bounded number of
	// tasks after the cancel may still run — nowhere near all of them.
	if int(atomic.LoadInt32(&ran)) == n {
		t.Error("every task ran despite mid-run cancellation")
	}
}

// TestRunStopsWorkerOnFalse: a worker whose task returns false claims
// nothing further, so a canceled DoCtx does not walk the remaining
// indices.
func TestRunStopsWorkerOnFalse(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var ran atomic.Int32
		run(workers, 1_000_000, func() struct{} { return struct{}{} }, func(_ struct{}, i int) bool {
			ran.Add(1)
			return false
		})
		if got := int(ran.Load()); got != workers {
			t.Errorf("workers=%d: %d tasks ran, want one per worker", workers, got)
		}
	}
}

func TestDoCtxBackgroundRunsEveryTaskOnce(t *testing.T) {
	hits := make([]int32, 500)
	err := DoCtx(context.Background(), 4, len(hits), func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		atomic.AddInt32(&hits[i], 1)
		if i == 123 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 123" {
		t.Fatalf("err = %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
}

// TestDoCtxMemoryIndependentOfN: DoCtx keeps only the lowest failed
// index and its error, so neither its allocation count nor the bytes it
// allocates grow with the number of tasks. testing.AllocsPerRun counts
// allocations; one slice of n errors would be a single allocation at any
// n, so the bytes are measured the same way, from runtime.MemStats.
func TestDoCtxMemoryIndependentOfN(t *testing.T) {
	newState := func() struct{} { return struct{}{} }
	task := func(_ struct{}, i int) error { return nil }
	call := func(n int) func() {
		return func() {
			if err := DoCtx(context.Background(), 1, n, newState, task); err != nil {
				t.Fatal(err)
			}
		}
	}
	const small, large = 10, 100_000
	if a, b := testing.AllocsPerRun(20, call(small)), testing.AllocsPerRun(20, call(large)); b > a {
		t.Errorf("allocations grow with n: %v at n=%d, %v at n=%d", a, small, b, large)
	}
	if a, b := bytesPerRun(20, call(small)), bytesPerRun(20, call(large)); b > a+64 {
		t.Errorf("allocated bytes grow with n: %d at n=%d, %d at n=%d", a, small, b, large)
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: the average
// over runs calls of f, after one warm-up call, with GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
