package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"kumquat"
	"kumquat/internal/obs"
	"kumquat/internal/synth"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// chain-cold-file: a fusable line-mapper chain over a fresh file per op
// (the CLI one-shot shape). Before each op (untimed) the base corpus is
// rewritten to a new file rotated by a seeded line offset, so neither
// the byte stream nor the chunk boundaries repeat; the op is a new Env,
// RegisterFile (mmap), a warm-engine ParallelizeInEnv and Execute.
const chainBaseLines = 800_000 // ≈ 32 MB

type chainState struct {
	cfg    config
	script string
	rng    *rand.Rand
	sys    *kumquat.System
	dir    string

	base   []byte
	starts []int

	n    int
	rot  []byte // the op's file contents
	path string
	want string
}

func setupChain(ctx context.Context, cfg config) (state, error) {
	s := &chainState{
		cfg:    cfg,
		script: "cat in.txt | " + frozenScript("chain.sh") + "\n",
		rng:    workloadRNG(cfg.seed, "chain-cold-file"),
		sys:    kumquat.NewWithOptions(kumquat.NewEnv(), kumquat.Options{Seed: 1, Workers: cfg.procs}),
	}
	var err error
	if s.dir, err = os.MkdirTemp(cfg.workdir, "chain-"); err != nil {
		return nil, err
	}
	s.base = genText(nil, s.rng, scaled(chainBaseLines, cfg.scale, 400))
	s.starts = lineStarts(s.base)
	for i := 0; i < 2; i++ {
		if err := s.prepare(); err != nil {
			return nil, err
		}
		if _, err := s.op(ctx, true); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return s, nil
}

// prepare writes the next op's fresh file and computes its reference.
func (s *chainState) prepare() error {
	if s.path != "" {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	s.n++
	s.rot = rotate(s.rot, s.base, s.starts[s.rng.Intn(len(s.starts))])
	s.path = filepath.Join(s.dir, fmt.Sprintf("in-%d.txt", s.n))
	if err := os.WriteFile(s.path, s.rot, 0o644); err != nil {
		return err
	}
	s.want = chainCount(s.rot)
	return nil
}

// op is the one-shot. ctx carries the program's own tracing when the
// obs-overhead probe roots one; fuse=false is the ablation probe.
func (s *chainState) op(ctx context.Context, fuse bool) (opIO, error) {
	env := kumquat.NewEnv()
	defer env.Close()
	if err := env.RegisterFile("in.txt", s.path); err != nil {
		return opIO{}, err
	}
	plan, err := s.sys.ParallelizeInEnv(ctx, env, s.script)
	if err != nil {
		return opIO{}, err
	}
	rep, err := plan.Execute(ctx, kumquat.WithParallelism(s.cfg.k), kumquat.WithFuse(fuse))
	if err != nil {
		return opIO{}, err
	}
	return opIO{int64(len(s.rot)), int64(len(s.starts))}, mismatch("chain count", rep.Output, s.want)
}

func (s *chainState) run(ctx context.Context, seconds float64, profile bool) (*window, error) {
	before := s.sys.SynthCacheStats()
	w, err := closedLoop(ctx, seconds, profile,
		func(int) error { return s.prepare() },
		func(int) (opIO, error) { return s.op(ctx, true) })
	if err != nil {
		return nil, err
	}
	w.cache = s.sys.SynthCacheStats().Sub(before)
	w.info = append(w.info, infoLine{"mb_per_s", mbPerS(w.bytes, w.busy), "MB/s"})
	return w, nil
}

func (s *chainState) layers(ctx context.Context, tr *tracer, seconds float64) (*layerResult, error) {
	res := newLayerResult()
	m := res.metrics
	base, err := s.run(ctx, seconds*0.3, true)
	if err != nil {
		return nil, err
	}
	res.absorb(base)
	res.setCache(base.cache)
	memLayers(m, base)

	eng := synth.New(unix.DefaultEnv(), synth.Options{Seed: 1, Workers: s.cfg.procs})
	if err := warmEngine(ctx, eng, s.script); err != nil {
		return nil, err
	}
	sm := samples{}
	var last *tracedOp
	var walls []time.Duration
	deadline := time.Now().Add(time.Duration(seconds * 0.15 * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if err := s.prepare(); err != nil {
			return nil, err
		}
		var uenv *unix.Env
		op, err := tracedBatchOp(ctx, tr, sm, i, eng, s.script, s.cfg.k, func(parent int) (*unix.Env, error) {
			tr.do(parent, i, "unix", "unix.env", func(int) error { //nolint:errcheck // cannot fail
				uenv = unix.DefaultEnv()
				return nil
			})
			d, err := tr.do(parent, i, "textio", "textio.map", func(int) error {
				mp, err := textio.MapFile(s.path)
				if err != nil {
					return err
				}
				uenv.FS.RegisterMapping("in.txt", mp)
				return nil
			})
			sm.add("textio.map", d)
			return uenv, err
		})
		if err == nil {
			err = mismatch("traced chain count", op.out, s.want)
		}
		res.check(err)
		if err != nil {
			if uenv != nil {
				uenv.FS.Close()
			}
			return res, nil
		}
		if last == nil {
			// Replay and the executor comparison need the mapping alive;
			// do them on the first traced op's environment.
			seq, err := uenv.FS.ReadSeq("in.txt")
			if err != nil {
				return nil, err
			}
			chunkLayers(m, seq, s.cfg.k)
			modeLayers(ctx, res, op.plan, uenv, s.cfg.k, s.want)
			final, err := replay(ctx, tr, 1000, op.plan, seq.Str(), s.cfg.k, m)
			if err == nil {
				err = mismatch("replayed chain count", final, s.want)
			}
			res.check(err)
		}
		last = op
		walls = append(walls, op.wall)
		if err := uenv.FS.Close(); err != nil {
			return nil, err
		}
	}
	pipelineLayers(m, sm, last)
	m["textio.map_us"] = us(sm.med("textio.map"))
	index := sm.med("textio.index")
	m["textio.index_ms"] = ms(index)
	m["textio.index_mb_s"] = mbPerS(int64(len(s.rot)), index)
	m["bench.trace_overhead_pct"] = traceOverhead(median(walls), median(base.lat))

	// Ablations on the real op, alternating so drift hits both sides:
	// fusion off, and the program's own tracer switched on from outside.
	var plain, unfused, observed []time.Duration
	spans := 0
	for i := 0; i < 5; i++ {
		for _, probe := range []string{"plain", "unfused", "observed"} {
			if err := s.prepare(); err != nil {
				return nil, err
			}
			opCtx, fuse := ctx, probe != "unfused"
			var root *obs.Span
			if probe == "observed" {
				opCtx, root = obs.NewTracer(4, "benchmark").StartTrace(ctx, "op")
			}
			d, err := timeIt(func() error {
				_, err := s.op(opCtx, fuse)
				return err
			})
			res.check(err)
			switch probe {
			case "plain":
				plain = append(plain, d)
			case "unfused":
				unfused = append(unfused, d)
			case "observed":
				root.End()
				spans = len(root.Records())
				observed = append(observed, d)
			}
		}
	}
	if p := median(plain); p > 0 {
		m["dataflow.fuse_gain_x"] = float64(median(unfused)) / float64(p)
		m["obs.enabled_overhead_pct"] = traceOverhead(median(observed), p)
	}
	m["obs.spans_per_op"] = float64(spans)
	return res, nil
}

func (s *chainState) close() error { return os.RemoveAll(s.dir) }
