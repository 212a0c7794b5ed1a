// Package par is the replicate-parallel execution substrate shared by the
// uncertainty layers (bootstrap resampling, posterior sampling). It runs n
// independent tasks on a small worker pool where each worker owns private
// scratch state (counts/CPT buffers, a re-seedable RNG), so the per-task
// inner loops are allocation-free and results land in caller-indexed slots
// — making output bit-identical regardless of GOMAXPROCS or scheduling.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: 0 (or negative) means one
// worker per available CPU, and the result never exceeds n (no idle
// goroutines for small jobs).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs task(state, i) for every i in [0, n) on `workers` goroutines
// (0 = one per CPU). Each worker calls newState once and reuses the
// returned scratch across all tasks it executes, so per-task allocations
// are amortized to zero. Tasks are claimed dynamically (an atomic cursor),
// which balances uneven task costs; determinism is the task's job — write
// results only to slot i and derive any randomness from i, never from the
// executing worker or claim order.
func Do[S any](workers, n int, newState func() S, task func(state S, i int)) {
	run(workers, n, newState, func(s S, i int) bool {
		task(s, i)
		return true
	})
}

// run is Do for tasks that can stop their worker: a worker whose task
// returns false claims no further tasks.
func run[S any](workers, n int, newState func() S, task func(state S, i int) bool) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		s := newState()
		for i := 0; i < n; i++ {
			if !task(s, i) {
				return
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || !task(s, i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// DoCtx is Do for tasks that can fail, with cooperative cancellation:
// workers stop claiming new tasks as soon as ctx is done, and the call
// returns ctx.Err(). Cancellation is checked between tasks, not inside
// them, so the latency of a cancel is bounded by one task's duration per
// worker. When ctx is never canceled, every task runs regardless of
// other tasks' failures (slots stay deterministic) and the error of the
// lowest-indexed failed task is returned — the same error no matter how
// tasks were scheduled — or nil if all succeeded.
//
// ctx must be non-nil: this package never fabricates a root context
// (the ctxflow invariant), so callers without a deadline pass
// context.Background() from main or a test.
func DoCtx[S any](ctx context.Context, workers, n int, newState func() S, task func(state S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	errs := make([]error, n)
	done := ctx.Done()
	run(workers, n, newState, func(s S, i int) bool {
		select {
		case <-done:
			return false
		default:
			errs[i] = task(s, i)
			return true
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
