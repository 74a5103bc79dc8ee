package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"kumquat"
	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// wf-append-rerun: the paper's §2 word-frequency script re-run over an
// append-mostly corpus held in one long-lived Env (the daemon/dashboard
// shape). Before each op a seeded delta of 0.5% new lines is appended
// (untimed); the op re-registers the corpus and re-runs Optimized at k.
// Every wfCycle ops the corpus falls back to the base, so the working set
// stays bounded and the op size does not depend on how many ops a faster
// system fits into the window.
const (
	wfBaseLines = 150_000 // ≈ 6 MB
	wfCycle     = 8
)

type wfState struct {
	cfg    config
	script string
	rng    *rand.Rand
	sys    *kumquat.System
	env    *kumquat.Env

	base       []byte
	baseCounts map[string]int
	baseLines  int
	deltaLines int

	n      int // ops prepared so far
	corpus []byte
	counts map[string]int
	lines  int
	text   string // corpus as the op will register it
	want   string // reference output for text
}

func setupWF(ctx context.Context, cfg config) (state, error) {
	s := &wfState{
		cfg:    cfg,
		script: "cat in.txt | " + frozenScript("wf.sh") + "\n",
		rng:    workloadRNG(cfg.seed, "wf-append-rerun"),
		env:    kumquat.NewEnv(),
	}
	s.sys = kumquat.NewWithOptions(s.env, kumquat.Options{Seed: 1, Workers: cfg.procs})
	s.baseLines = scaled(wfBaseLines, cfg.scale, 400)
	s.deltaLines = max(1, s.baseLines/200)
	s.base = genText(nil, s.rng, s.baseLines)
	s.baseCounts = map[string]int{}
	addWords(s.baseCounts, s.base, true)
	// Warm-up: the first op synthesizes the five stage combiners.
	for i := 0; i < 2; i++ {
		if err := s.prepare(); err != nil {
			return nil, err
		}
		if _, err := s.op(ctx); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return s, nil
}

// prepare appends the next delta and computes the op's reference.
func (s *wfState) prepare() error {
	if s.n%wfCycle == 0 {
		s.corpus = append(s.corpus[:0], s.base...)
		s.counts = maps.Clone(s.baseCounts)
		s.lines = s.baseLines
	}
	s.n++
	at := len(s.corpus)
	s.corpus = genText(s.corpus, s.rng, s.deltaLines)
	addWords(s.counts, s.corpus[at:], false)
	s.lines += s.deltaLines
	s.text = string(s.corpus)
	s.want = renderWordFreq(s.counts)
	return nil
}

func (s *wfState) op(ctx context.Context) (opIO, error) {
	s.env.Register("in.txt", s.text)
	plan, err := s.sys.ParallelizeInEnv(ctx, s.env, s.script)
	if err != nil {
		return opIO{}, err
	}
	rep, err := plan.Execute(ctx, kumquat.WithParallelism(s.cfg.k))
	if err != nil {
		return opIO{}, err
	}
	return opIO{int64(len(s.text)), int64(s.lines)}, mismatch("word frequencies", rep.Output, s.want)
}

func (s *wfState) run(ctx context.Context, seconds float64, profile bool) (*window, error) {
	before := s.sys.SynthCacheStats()
	w, err := closedLoop(ctx, seconds, profile,
		func(int) error { return s.prepare() },
		func(int) (opIO, error) { return s.op(ctx) })
	if err != nil {
		return nil, err
	}
	w.cache = s.sys.SynthCacheStats().Sub(before)
	w.info = append(w.info, infoLine{"mb_per_s", mbPerS(w.bytes, w.busy), "MB/s"})
	return w, nil
}

func (s *wfState) layers(ctx context.Context, tr *tracer, seconds float64) (*layerResult, error) {
	res := newLayerResult()
	m := res.metrics
	base, err := s.run(ctx, seconds*0.3, true)
	if err != nil {
		return nil, err
	}
	res.absorb(base)
	res.setCache(base.cache)
	memLayers(m, base)

	// The traced ops decompose the op into public module calls over a
	// benchmark-owned unix.Env and a warm engine of its own.
	uenv := unix.DefaultEnv()
	eng := synth.New(uenv, synth.Options{Seed: 1, Workers: s.cfg.procs})
	if err := warmEngine(ctx, eng, s.script); err != nil {
		return nil, err
	}
	sm := samples{}
	var last *tracedOp
	var walls []time.Duration
	deadline := time.Now().Add(time.Duration(seconds * 0.2 * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if err := s.prepare(); err != nil {
			return nil, err
		}
		op, err := tracedBatchOp(ctx, tr, sm, i, eng, s.script, s.cfg.k, func(int) (*unix.Env, error) {
			uenv.FS.Register("in.txt", s.text)
			return uenv, nil
		})
		if err == nil {
			err = mismatch("traced word frequencies", op.out, s.want)
		}
		res.check(err)
		if err != nil {
			return res, nil
		}
		last = op
		walls = append(walls, op.wall)
	}
	modeLayers(ctx, res, last.plan, uenv, s.cfg.k, s.want)
	pipelineLayers(m, sm, last)
	index := sm.med("textio.index")
	m["textio.index_ms"] = ms(index)
	m["textio.reindex_ms"] = ms(index)
	m["textio.index_mb_s"] = mbPerS(int64(len(s.text)), index)
	seq, err := uenv.FS.ReadSeq("in.txt")
	if err != nil {
		return nil, err
	}
	chunkLayers(m, seq, s.cfg.k)
	m["bench.trace_overhead_pct"] = traceOverhead(median(walls), median(base.lat))

	final, err := replay(ctx, tr, len(walls), last.plan, s.text, s.cfg.k, m)
	if err == nil {
		err = mismatch("replayed word frequencies", final, s.want)
	}
	res.check(err)
	return res, nil
}

func (s *wfState) close() error { return s.env.Close() }

// warmEngine compiles script once so every stage combiner is cached.
func warmEngine(ctx context.Context, eng *synth.Engine, script string) error {
	parsed, err := pipeline.ParseScript(script, nil)
	if err != nil {
		return err
	}
	for _, pl := range parsed.Pipelines {
		if _, err := pipeline.CompileContext(ctx, pl, eng); err != nil {
			return err
		}
	}
	return nil
}

// chunkLayers times the k-way split of an indexed stream and reports how
// uneven the chunks are (max ÷ mean chunk bytes).
func chunkLayers(m map[string]float64, seq textio.LineSeq, k int) {
	var chunks []string
	var ds []time.Duration
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		chunks = seq.Chunk(k)
		ds = append(ds, time.Since(t0))
	}
	m["textio.chunk_us"] = us(median(ds))
	total, largest := 0, 0
	for _, c := range chunks {
		total += len(c)
		largest = max(largest, len(c))
	}
	if total > 0 {
		m["textio.chunk_skew"] = float64(largest) * float64(len(chunks)) / float64(total)
	}
}
