// Package par is the repository's one bounded fan-out: split the work
// into n indexed pieces and run them on a fixed number of goroutines.
// The executor's chunk runs, synthesis's observation and filter passes
// and the cluster's shard dispatch all go through For.
//
// For takes no context. A caller that can be cancelled checks its
// context at the top of fn, so no new piece starts once it is done, and
// again after For returns.
//
//kqvet:docs
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on at most min(workers, n)
// goroutines, the calling goroutine among them, and returns once every
// call has returned. Indices are handed out from one atomic counter, so
// a slow piece does not hold up the others; fn must write only to state
// owned by index i. At a width of 1 (workers ≤ 1 or n ≤ 1) every call
// runs inline, in index order.
func For(workers, n int, fn func(i int)) {
	width := min(workers, n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for range width - 1 {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
