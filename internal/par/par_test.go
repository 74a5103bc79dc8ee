package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFor: every index runs exactly once; the fan-out reaches, and never
// exceeds, min(workers, n) calls in flight; and a width of 1 runs every
// call inline on the caller's goroutine, in index order.
func TestFor(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 0}, {1, 5}, {0, 3}, {4, 1}, {4, 100}, {100, 4}, {3, 3}, {8, 64},
	} {
		width := max(min(tc.workers, tc.n), 1)
		runs := make([]atomic.Int32, tc.n)
		var inflight, peak atomic.Int32
		// The first width calls hold until width are in flight at once,
		// so a fan-out narrower than width times out instead of passing.
		full := make(chan struct{})
		fill := sync.OnceFunc(func() { close(full) })
		goroutines := runtime.NumGoroutine()
		var order []int
		For(tc.workers, tc.n, func(i int) {
			runs[i].Add(1)
			cur := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			if width == 1 {
				order = append(order, i)
				if g := runtime.NumGoroutine(); g != goroutines {
					t.Errorf("workers=%d n=%d: call %d ran with %d goroutines, want %d (inline)", tc.workers, tc.n, i, g, goroutines)
				}
				return
			}
			if int(cur) == width {
				fill()
			}
			if i < width {
				select {
				case <-full:
				case <-time.After(10 * time.Second):
					t.Errorf("workers=%d n=%d: %d calls never ran at once", tc.workers, tc.n, width)
				}
			}
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, got)
			}
		}
		if tc.n > 0 && int(peak.Load()) != width {
			t.Errorf("workers=%d n=%d: peak %d in flight, want %d", tc.workers, tc.n, peak.Load(), width)
		}
		if width == 1 {
			for i, v := range order {
				if v != i {
					t.Fatalf("workers=%d n=%d: inline order %v", tc.workers, tc.n, order)
				}
			}
		}
	}
}

// TestForAllocations pins For's allocations at run time: none at a width
// of 1, and at a wider width a count set by the width alone (the shared
// counter, the run closure and one launch per extra goroutine), the same
// for 64 pieces as for 4096.
func TestForAllocations(t *testing.T) {
	var sink [4096]int
	fn := func(i int) { sink[i]++ }
	for _, workers := range []int{1, 4} {
		small := testing.AllocsPerRun(100, func() { For(workers, 64, fn) })
		large := testing.AllocsPerRun(100, func() { For(workers, 4096, fn) })
		if small != large || small > float64(workers+2) || workers == 1 && small != 0 {
			t.Errorf("workers=%d: %v allocations for 64 pieces, %v for 4096; want equal, ≤ %d, 0 at width 1",
				workers, small, large, workers+2)
		}
	}
}
