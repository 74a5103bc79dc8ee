package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/server"
	"kumquat/internal/server/api"
	"kumquat/internal/server/client"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// cluster-ship: a coordinator plus three loopback workers, all
// in-process, no fault injection, four shards per parallel stage. Each
// op streams a body through /v1/execute?cluster=on with the
// word-frequency script; closed loop, one client. The body is the base
// corpus rotated by a seeded line offset, so shard boundaries move from
// op to op. Workers share cores with the coordinator, so wall-clock
// scaling is not claimed: the counts (bytes shipped, shards, retries,
// fallbacks) are the primary per-layer evidence.
const (
	clusterBaseLines = 50_000 // ≈ 2 MB
	clusterWorkers   = 3
	clusterShards    = 4
)

// shardMeter wraps each worker's Handler(): it counts the bytes shipped
// to the workers and times every shard request from the outside. During
// the traced pass it also records a span per shard under the current op.
type shardMeter struct {
	mu    sync.Mutex
	bytes int64
	busy  time.Duration
	lat   []time.Duration

	tr         *tracer
	op, parent int
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (m *shardMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/execute" {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		m.mu.Lock()
		tr, op, parent := m.tr, m.op, m.parent
		m.mu.Unlock()
		id := -1
		if tr != nil {
			id = tr.begin(parent, op, "cluster", "cluster.shard")
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if tr != nil {
			tr.end(id)
		}
		m.mu.Lock()
		m.bytes += body.n
		m.busy += d
		m.lat = append(m.lat, d)
		m.mu.Unlock()
	})
}

func (m *shardMeter) reset() {
	m.mu.Lock()
	m.bytes, m.busy, m.lat = 0, 0, nil
	m.mu.Unlock()
}

func (m *shardMeter) attach(tr *tracer, op, parent int) {
	m.mu.Lock()
	m.tr, m.op, m.parent = tr, op, parent
	m.mu.Unlock()
}

type clusterState struct {
	cfg    config
	rng    *rand.Rand
	script string
	meter  *shardMeter
	nodes  []*node // workers, then the coordinator
	csrv   *server.Server
	c      *client.Client
	conns  *http.Transport

	base   []byte
	starts []int
	rot    []byte
	want   string

	reports api.ClusterReport // summed over the window's ops
}

func setupCluster(ctx context.Context, cfg config) (state, error) {
	s := &clusterState{
		cfg:    cfg,
		rng:    workloadRNG(cfg.seed, "cluster-ship"),
		script: frozenScript("wf.sh"),
		meter:  &shardMeter{},
	}
	s.base = genText(nil, s.rng, scaled(clusterBaseLines, cfg.scale, 400))
	s.starts = lineStarts(s.base)
	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		wsrv := server.New(server.Config{
			SynthOptions: kumquat.Options{Seed: 1, Workers: cfg.procs},
			TraceProc:    fmt.Sprintf("worker%d", i),
		})
		n, err := bootNode(s.meter.wrap(wsrv.Handler()))
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		urls = append(urls, n.url)
	}
	s.csrv = server.New(server.Config{
		SynthOptions: kumquat.Options{Seed: 1, Workers: cfg.procs},
		TraceProc:    "coordinator",
		Cluster:      cluster.Config{Workers: urls, Shards: clusterShards},
	})
	coord, err := bootNode(s.csrv.Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	s.nodes = append(s.nodes, coord)
	s.c, s.conns = newClient(coord.url, 1)
	// Warm-up: the coordinator plans the script and every worker
	// synthesizes the single-stage scripts it is sent.
	for i := 0; i < 2; i++ {
		s.prepare()
		if _, err := s.op(ctx); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return s, nil
}

func (s *clusterState) prepare() {
	s.rot = rotate(s.rot, s.base, s.starts[s.rng.Intn(len(s.starts))])
	s.want = wordFreq(s.rot)
}

func (s *clusterState) op(ctx context.Context) (opIO, error) {
	var out strings.Builder
	rep, err := s.c.Execute(ctx, s.script, client.ExecuteOptions{Cluster: "on"}, bytes.NewReader(s.rot), &out)
	if err != nil {
		return opIO{}, err
	}
	if rep == nil || rep.Cluster == nil {
		return opIO{}, fmt.Errorf("execute reply carries no cluster report")
	}
	cr := rep.Cluster
	s.reports.Shards += cr.Shards
	s.reports.RemoteRuns += cr.RemoteRuns
	s.reports.LocalRuns += cr.LocalRuns
	s.reports.Retries += cr.Retries
	s.reports.Speculations += cr.Speculations
	s.reports.SpeculationWins += cr.SpeculationWins
	s.reports.Ejections += cr.Ejections
	return opIO{int64(len(s.rot)), int64(len(s.starts))}, mismatch("cluster word frequencies", out.String(), s.want)
}

func (s *clusterState) run(ctx context.Context, seconds float64, profile bool) (*window, error) {
	before := s.csrv.System().SynthCacheStats()
	s.reports = api.ClusterReport{}
	s.meter.reset()
	w, err := closedLoop(ctx, seconds, profile,
		func(int) error { s.prepare(); return nil },
		func(int) (opIO, error) { return s.op(ctx) })
	if err != nil {
		return nil, err
	}
	w.cache = s.csrv.System().SynthCacheStats().Sub(before)
	w.info = append(w.info, infoLine{"mb_per_s", mbPerS(w.bytes, w.busy), "MB/s"})
	return w, nil
}

func (s *clusterState) layers(ctx context.Context, tr *tracer, seconds float64) (*layerResult, error) {
	res := newLayerResult()
	m := res.metrics
	base, err := s.run(ctx, seconds*0.4, false)
	if err != nil {
		return nil, err
	}
	res.absorb(base)
	res.setCache(base.cache)
	if ops := float64(base.attempted); ops > 0 {
		// Per-op counts from the report trailers.
		m["cluster.shards"] = float64(s.reports.Shards) / ops
		m["cluster.remote"] = float64(s.reports.RemoteRuns) / ops
		m["cluster.local_fallbacks"] = float64(s.reports.LocalRuns) / ops
		m["cluster.retries"] = float64(s.reports.Retries) / ops
		m["cluster.speculations"] = float64(s.reports.Speculations) / ops
		m["cluster.speculation_wins"] = float64(s.reports.SpeculationWins) / ops
		m["cluster.ejections"] = float64(s.reports.Ejections) / ops
		s.meter.mu.Lock()
		m["cluster.shipped_mb"] = float64(s.meter.bytes) / 1e6 / ops
		m["cluster.ship_ratio"] = float64(s.meter.bytes) / (ops * float64(len(s.base)))
		m["cluster.shard_p50_ms"] = ms(median(s.meter.lat))
		m["cluster.shard_p99_ms"] = ms(quantile(s.meter.lat, 0.99))
		m["cluster.worker_busy_share"] = float64(s.meter.busy) / (float64(base.busy) * clusterWorkers)
		s.meter.mu.Unlock()
	}

	// Traced ops: the client call, with each worker-side shard request
	// recorded under it by the meter.
	var walls []time.Duration
	for i := 0; i < 3; i++ {
		s.prepare()
		d, err := tr.do(-1, i, "bench", "op", func(root int) error {
			_, err := tr.do(root, i, "server", "server.execute cluster=on", func(call int) error {
				s.meter.attach(tr, i, call)
				defer s.meter.attach(nil, 0, 0)
				_, err := s.op(ctx)
				return err
			})
			return err
		})
		res.check(err)
		walls = append(walls, d)
	}
	m["bench.trace_overhead_pct"] = traceOverhead(median(walls), median(base.lat))

	// The same script and body, local Optimized at k, and the staged
	// replay over the plan's stages.
	uenv := unix.DefaultEnv()
	eng := synth.New(uenv, synth.Options{Seed: 1, Workers: s.cfg.procs})
	script := "cat in.txt | " + s.script + "\n"
	if err := warmEngine(ctx, eng, script); err != nil {
		return nil, err
	}
	sm := samples{}
	text := string(s.rot)
	var last *tracedOp
	for i := 0; i < 3; i++ {
		op, err := tracedBatchOp(ctx, newTracer(), sm, i, eng, script, s.cfg.k, func(int) (*unix.Env, error) {
			uenv.FS.Register("in.txt", text)
			return uenv, nil
		})
		if err == nil {
			err = mismatch("local word frequencies", op.out, s.want)
		}
		res.check(err)
		if err != nil {
			return res, nil
		}
		last = op
	}
	if local := sm.med("pipeline.execute"); local > 0 {
		m["cluster.overhead_x"] = float64(median(base.lat)) / float64(local)
	}
	final, err := replay(ctx, tr, len(walls), last.plan, text, s.cfg.k, m)
	if err == nil {
		err = mismatch("replayed word frequencies", final, s.want)
	}
	res.check(err)
	return res, nil
}

func (s *clusterState) close() error {
	if s.conns != nil {
		s.conns.CloseIdleConnections()
	}
	var first error
	for i := len(s.nodes) - 1; i >= 0; i-- {
		if err := s.nodes[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
