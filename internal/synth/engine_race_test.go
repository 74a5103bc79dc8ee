package synth

import (
	"context"
	"sync"
	"testing"

	"kumquat/internal/synth/cache"
	"kumquat/internal/unix"
)

// TestEngineConcurrentClients hammers one shared engine from many
// goroutines — the daemon's access pattern — mixing cold synthesis,
// warm LRU hits, negative verdicts, Stats snapshots and LRU churn
// (tiny capacity forces evictions). Run under -race (CI does) this pins
// the engine's concurrency contract; the final counter check pins that
// every call was attributed to exactly one tier.
func TestEngineConcurrentClients(t *testing.T) {
	eng := New(unix.DefaultEnv(), Options{
		Seed: 1, CacheSize: 2,
		// Small effort bounds: this test is about interleaving, not
		// synthesis quality.
		MaxRounds: 2, PairsPerShape: 1, MutationIters: 1,
	})
	specs := []string{"wc -l", "head -n 2", "grep x", "ls", "paste - -"}
	const goroutines = 8
	const iters = 6

	tiers := make([][]cache.Tier, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := specs[(g+i)%len(specs)]
				res, tier, _ := eng.SynthesizeTier(context.Background(), spec)
				if res == nil {
					t.Errorf("SynthesizeTier(%q) returned nil result", spec)
					return
				}
				tiers[g] = append(tiers[g], tier)
				eng.Stats() // concurrent snapshot reads must be safe too
			}
		}(g)
	}
	wg.Wait()

	var calls int64
	for _, ts := range tiers {
		calls += int64(len(ts))
	}
	st := eng.Stats()
	if got := st.Lookups(); got != calls {
		t.Errorf("tier attribution leaked: %d calls but %d lookups recorded (%+v)", calls, got, st)
	}
	if st.Misses < int64(len(specs)) {
		t.Errorf("expected at least %d misses (one per distinct spec), got %d", len(specs), st.Misses)
	}

	// After the storm the engine still serves: the capacity-2 LRU cannot
	// hold five specs, but each one is memory-warm right after a call.
	for _, spec := range specs {
		eng.SynthesizeTier(context.Background(), spec)
		if _, tier, _ := eng.SynthesizeTier(context.Background(), spec); tier != cache.TierMemory {
			t.Errorf("post-storm repeat SynthesizeTier(%q) tier = %v, want memory", spec, tier)
		}
	}
}
