package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"kumquat/internal/dsl"
	"kumquat/internal/synth"
	"kumquat/internal/synth/cache"
	"kumquat/internal/unix"
)

// plan-cold: one op synthesizes every frozen stage spec with a fresh
// synth.Engine (no disk cache, Workers = nproc) and compares each
// verdict with the frozen table. The seed shuffles the spec order per
// op; the set itself is frozen so the verdict table is too.
type planState struct {
	cfg   config
	rng   *rand.Rand
	specs []specRow
	order []specRow // the next op's shuffled order

	opCache cache.Stats // engine stats summed over the window's ops
}

func setupPlan(ctx context.Context, cfg config) (state, error) {
	s := &planState{cfg: cfg, rng: workloadRNG(cfg.seed, "plan-cold"), specs: frozenSpecs(cfg.scale)}
	for i := 0; i < 2; i++ {
		s.prepare()
		if _, err := s.op(ctx, nil); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return s, nil
}

func (s *planState) prepare() {
	s.order = append(s.order[:0], s.specs...)
	s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
}

// verdictOf renders a synthesis outcome the way the frozen table does.
func verdictOf(r *synth.Result, err error) string {
	switch {
	case err != nil:
		return "none: " + err.Error()
	case r.Combiner.IsRerunOnly():
		return "rerun-only: " + r.Combiner.String()
	default:
		return "combiner: " + r.Combiner.String()
	}
}

// op synthesizes the whole set cold. around, when non-nil, wraps each
// spec's synthesis call (the traced pass's span hook).
func (s *planState) op(ctx context.Context, around func(sp specRow, synthesize func())) (opIO, error) {
	eng := synth.New(unix.DefaultEnv(), synth.Options{Seed: 1, Workers: s.cfg.procs})
	var firstErr error
	for _, sp := range s.order {
		var r *synth.Result
		var err error
		synthesize := func() { r, err = eng.Synthesize(ctx, sp.spec) }
		if around != nil {
			around(sp, synthesize)
		} else {
			synthesize()
		}
		if ctx.Err() != nil {
			return opIO{}, ctx.Err()
		}
		if got := verdictOf(r, err); got != sp.verdict && firstErr == nil {
			firstErr = fmt.Errorf("verdict for %q: got %q, frozen table says %q", sp.spec, got, sp.verdict)
		}
	}
	s.opCache = s.opCache.Add(eng.Stats())
	return opIO{}, firstErr
}

func (s *planState) run(ctx context.Context, seconds float64, profile bool) (*window, error) {
	s.opCache = cache.Stats{}
	w, err := closedLoop(ctx, seconds, profile,
		func(int) error { s.prepare(); return nil },
		func(int) (opIO, error) { return s.op(ctx, nil) })
	if err != nil {
		return nil, err
	}
	w.cache = s.opCache
	w.info = append(w.info, infoLine{"specs_per_s", float64(w.done*len(s.specs)) / w.busy.Seconds(), "1/s"})
	return w, nil
}

func (s *planState) layers(ctx context.Context, tr *tracer, seconds float64) (*layerResult, error) {
	res := newLayerResult()
	m := res.metrics
	base, err := s.run(ctx, seconds*0.3, true)
	if err != nil {
		return nil, err
	}
	res.absorb(base)
	res.setCache(base.cache)

	// Traced ops: one span per spec under the op.
	byClass := map[string][]time.Duration{}
	var all, walls []time.Duration
	for i := 0; i < 3; i++ {
		s.prepare()
		d, err := tr.do(-1, i, "bench", "op", func(root int) error {
			_, err := s.op(ctx, func(sp specRow, synthesize func()) {
				d, _ := tr.do(root, i, "synth", "synth.synthesize "+sp.class, func(int) error {
					synthesize()
					return nil
				})
				byClass[sp.class] = append(byClass[sp.class], d)
				all = append(all, d)
			})
			return err
		})
		res.check(err)
		walls = append(walls, d)
	}
	m["synth.cold_p50_ms"] = ms(median(all))
	m["synth.cold_max_ms"] = ms(quantile(all, 1))
	for _, class := range []string{"small", "mid", "large"} {
		m["synth.cold."+class+"_ms"] = ms(median(byClass[class]))
	}
	m["bench.trace_overhead_pct"] = traceOverhead(median(walls), median(base.lat))
	for _, sp := range s.specs {
		switch sp.verdict[:4] {
		case "comb":
			m["synth.combiners_found"]++
		case "reru":
			m["synth.rerun_only"]++
		default:
			m["synth.no_combiner"]++
		}
	}

	// Warm lookups, and a restart over a populated on-disk store.
	cacheDir, err := os.MkdirTemp(s.cfg.workdir, "plan-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)
	warm := synth.New(unix.DefaultEnv(), synth.Options{Seed: 1, Workers: s.cfg.procs, CacheDir: cacheDir})
	for _, sp := range s.specs {
		warm.Synthesize(ctx, sp.spec) //nolint:errcheck // verdicts were checked above
	}
	var hits []time.Duration
	for _, sp := range s.specs {
		t0 := time.Now()
		r, tier, err := warm.SynthesizeTier(ctx, sp.spec)
		hits = append(hits, time.Since(t0))
		if got := verdictOf(r, err); got != sp.verdict || tier != cache.TierMemory {
			res.check(fmt.Errorf("warm lookup of %q: tier %s, verdict %q, want %q", sp.spec, tier, got, sp.verdict))
		} else {
			res.check(nil)
		}
	}
	m["synth.warm_hit_us"] = us(median(hits))
	restarted := synth.New(unix.DefaultEnv(), synth.Options{Seed: 1, Workers: s.cfg.procs, CacheDir: cacheDir})
	t0 := time.Now()
	for _, sp := range s.specs {
		r, err := restarted.Synthesize(ctx, sp.spec)
		if got := verdictOf(r, err); got != sp.verdict {
			res.check(fmt.Errorf("disk verdict for %q: got %q, want %q", sp.spec, got, sp.verdict))
		}
	}
	m["synth.disk_replan_ms"] = ms(time.Since(t0))

	// Eight identical cold requests at once: syntheses run ÷ requests.
	herd := synth.New(unix.DefaultEnv(), synth.Options{Seed: 1, Workers: s.cfg.procs})
	spec := s.specs[len(s.specs)-1].spec // large class
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			herd.Synthesize(ctx, spec) //nolint:errcheck // only the miss count matters
		}()
	}
	wg.Wait()
	m["synth.singleflight_ratio"] = float64(herd.Stats().Misses) / 8

	// The candidate spaces behind the three classes.
	for i, class := range []string{"small", "mid", "large"} {
		var cands []dsl.Candidate
		d, _ := timeIt(func() error {
			cands = dsl.Enumerate(dsl.DefaultMaxProductions, dsl.Delims[:i+1])
			return nil
		})
		m["dsl.space."+class] = float64(dsl.Measure(cands).Total())
		if class == "large" {
			m["dsl.enumerate_ms"] = ms(d)
		}
	}
	return res, nil
}

func (s *planState) close() error { return nil }
