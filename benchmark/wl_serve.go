package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kumquat"
	"kumquat/internal/server"
	"kumquat/internal/server/client"
)

// serve-warm-mix: an in-process loopback kumquatd (default admission)
// driven through the typed client over at most nproc connections with a
// seeded mix of 70% /v1/synthesize, 20% /v1/parallelize and 10%
// /v1/execute (64 KiB stdin body), every spec pre-warmed.
//
// Phase A is an open loop at a fixed rate from a precomputed seeded
// timetable; each request is timed from when it was due, which counts
// the wait a stall imposes on later requests, and how late the generator
// itself sent is reported. Phase B is a closed loop of nproc clients.
const (
	serveRate      = 500.0 // phase A requests per second
	serveOpenShare = 0.6   // share of the window spent in phase A
	serveBodyBytes = 64 << 10
	serveBodies    = 8
	// serveMaxLagMS fails the run when the generator's own median
	// lateness exceeds it: the backlog is then growing, so the rate, not
	// the server, is mis-sized. (The p99 is reported, not gated: on a
	// shared 2-CPU machine a single hypervisor stall moves it.)
	serveMaxLagMS = 5.0
)

type request struct {
	kind byte // 's'ynthesize, 'p'arallelize, 'e'xecute
	idx  int
}

type sample struct {
	kind    byte
	fromDue time.Duration // due → verified result
	service time.Duration // sent → verified result
	lag     time.Duration // due → sent: the generator's lateness
}

type serveState struct {
	cfg   config
	rng   *rand.Rand
	srv   *server.Server
	node  *node
	c     *client.Client
	conns *http.Transport

	specs      []specRow
	plans      []planRow
	execScript string
	bodies     []string
	wants      []string
}

func setupServe(ctx context.Context, cfg config) (state, error) {
	s := &serveState{
		cfg:        cfg,
		rng:        workloadRNG(cfg.seed, "serve-warm-mix"),
		specs:      frozenSpecs(cfg.scale),
		plans:      frozenPlans(),
		execScript: frozenScript("serve-execute.sh"),
	}
	for i := 0; i < serveBodies; i++ {
		var body []byte
		for len(body) < serveBodyBytes {
			body = genText(body, s.rng, 64)
		}
		body = body[:bytes.LastIndexByte(body[:serveBodyBytes], '\n')+1]
		s.bodies = append(s.bodies, string(body))
		s.wants = append(s.wants, lineFreq(body))
	}
	s.srv = server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1, Workers: cfg.procs}})
	var err error
	if s.node, err = bootNode(s.srv.Handler()); err != nil {
		return nil, err
	}
	s.c, s.conns = newClient(s.node.url, cfg.procs)
	// Pre-warm every spec, plan and the execute script, then verify once
	// more warm.
	for pass := 0; pass < 2; pass++ {
		for _, rq := range s.everyRequest() {
			if err := s.do(ctx, rq); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// everyRequest lists each distinct request once.
func (s *serveState) everyRequest() []request {
	var all []request
	for i := range s.specs {
		all = append(all, request{'s', i})
	}
	for i := range s.plans {
		all = append(all, request{'p', i})
	}
	for i := range s.bodies {
		all = append(all, request{'e', i})
	}
	return all
}

// draw picks the next request of the 70/20/10 mix.
func (s *serveState) draw(rng *rand.Rand) request {
	switch x := rng.Intn(10); {
	case x < 7:
		return request{'s', rng.Intn(len(s.specs))}
	case x < 9:
		return request{'p', rng.Intn(len(s.plans))}
	default:
		return request{'e', rng.Intn(len(s.bodies))}
	}
}

// do sends one request and checks the reply against its reference.
func (s *serveState) do(ctx context.Context, rq request) error {
	switch rq.kind {
	case 's':
		sp := s.specs[rq.idx]
		resp, err := s.c.Synthesize(ctx, sp.spec)
		if err != nil {
			return err
		}
		got := resp.Combiner
		if resp.Unsupported != "" {
			got = resp.Unsupported
		}
		_, want, _ := strings.Cut(sp.verdict, ": ")
		return mismatch("verdict for "+sp.spec, got, want)
	case 'p':
		pl := s.plans[rq.idx]
		resp, err := s.c.Parallelize(ctx, pl.script, nil)
		if err != nil {
			return err
		}
		got := fmt.Sprintf("%d/%d/%d", resp.Parallelized, resp.Total, resp.Eliminated)
		return mismatch("plan counts for "+pl.script, got, pl.counts)
	default:
		var out strings.Builder
		_, err := s.c.Execute(ctx, s.execScript, client.ExecuteOptions{K: s.cfg.k}, strings.NewReader(s.bodies[rq.idx]), &out)
		if err != nil {
			return err
		}
		return mismatch("execute output", out.String(), s.wants[rq.idx])
	}
}

// openLoop sends reqs on the fixed-rate timetable over procs connections.
func (s *serveState) openLoop(ctx context.Context, reqs []request, w *window) []sample {
	samples := make([]sample, len(reqs))
	interval := time.Duration(float64(time.Second) / serveRate)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := s.do(ctx, reqs[i])
				done := time.Now()
				samples[i] = sample{reqs[i].kind, done.Sub(due), done.Sub(sent), sent.Sub(due)}
				if err != nil {
					mu.Lock()
					w.fail(fmt.Errorf("open-loop request %d: %w", i, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoopPhase runs procs clients back to back for the given time and
// returns how many requests completed.
func (s *serveState) closedLoopPhase(ctx context.Context, seconds float64, w *window) int {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.procs; c++ {
		rng := rand.New(rand.NewSource(s.rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				err := s.do(ctx, s.draw(rng))
				completed.Add(1)
				if err != nil {
					mu.Lock()
					w.fail(fmt.Errorf("closed-loop request: %w", err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return int(completed.Load())
}

// phases runs A then B and returns the window with phase A's samples.
func (s *serveState) phases(ctx context.Context, seconds float64) (*window, []sample) {
	w := &window{}
	before := s.srv.System().SynthCacheStats()
	reqs := make([]request, max(20, int(serveRate*seconds*serveOpenShare)))
	for i := range reqs {
		reqs[i] = s.draw(s.rng)
	}
	open := s.openLoop(ctx, reqs, w)
	t0 := time.Now()
	w.done = s.closedLoopPhase(ctx, seconds*(1-serveOpenShare), w)
	w.busy = time.Since(t0)
	w.attempted = len(open) + w.done
	var lags []time.Duration
	for _, sm := range open {
		w.lat = append(w.lat, sm.fromDue)
		lags = append(lags, sm.lag)
	}
	w.cache = s.srv.System().SynthCacheStats().Sub(before)
	w.info = append(w.info,
		infoLine{"op_p99_ms", ms(quantile(w.lat, 0.99)), "ms"},
		infoLine{"req_per_s", float64(w.done) / w.busy.Seconds(), "1/s"},
		infoLine{"sched_lag_p99_ms", ms(quantile(lags, 0.99)), "ms"})
	if lag := ms(median(lags)); lag > serveMaxLagMS {
		w.fail(fmt.Errorf("open-loop generator ran %.1f ms late at the median (limit %.0f ms): %g req/s is mis-sized for this machine", lag, serveMaxLagMS, serveRate))
	}
	return w, open
}

func (s *serveState) run(ctx context.Context, seconds float64, _ bool) (*window, error) {
	w, _ := s.phases(ctx, seconds)
	return w, ctx.Err()
}

func (s *serveState) layers(ctx context.Context, tr *tracer, seconds float64) (*layerResult, error) {
	res := newLayerResult()
	m := res.metrics

	// Baseline phases with a /metrics sampler beside them.
	sampleCtx, stopSampler := context.WithCancel(ctx)
	var sampler sync.WaitGroup
	var inflightPeak, queuedPeak float64
	scraper, scraperConns := newClient(s.node.url, 1)
	defer scraperConns.CloseIdleConnections()
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-tick.C:
				if text, err := scraper.Metrics(sampleCtx); err == nil {
					inflightPeak = max(inflightPeak, promValues(text, "kumquatd_in_flight", ""))
					queuedPeak = max(queuedPeak, promValues(text, "kumquatd_queued", ""))
				}
			}
		}
	}()
	base, open := s.phases(ctx, seconds*0.6)
	stopSampler()
	sampler.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.absorb(base)
	res.setCache(base.cache)
	m["server.inflight_peak"] = inflightPeak
	m["server.queued_peak"] = queuedPeak
	text, err := scraper.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	m["server.rejected_429"] = promValues(text, "kumquatd_requests_total", `code="429"`)

	byKind := map[byte][]time.Duration{}
	var lags []time.Duration
	for _, sm := range open {
		byKind[sm.kind] = append(byKind[sm.kind], sm.service)
		lags = append(lags, sm.lag)
	}
	m["server.synth_p50_us"] = us(median(byKind['s']))
	m["server.synth_p99_us"] = us(quantile(byKind['s'], 0.99))
	m["server.parallelize_p50_us"] = us(median(byKind['p']))
	m["server.parallelize_p99_us"] = us(quantile(byKind['p'], 0.99))
	m["server.execute_p50_ms"] = ms(median(byKind['e']))
	m["server.execute_p99_ms"] = ms(quantile(byKind['e'], 0.99))
	m["server.op_p99_ms"] = ms(quantile(base.lat, 0.99))
	m["server.sched_lag_p99_ms"] = ms(quantile(lags, 0.99))
	if base.done > 0 {
		m["server.capacity_ratio"] = serveRate / (float64(base.done) / base.busy.Seconds())
	}

	// The same warm lookup without HTTP, admission or JSON.
	var direct []time.Duration
	for i := 0; i < 5; i++ {
		for _, sp := range s.specs {
			t0 := time.Now()
			s.srv.System().SynthesizeTier(ctx, sp.spec) //nolint:errcheck // verdicts are checked over HTTP
			direct = append(direct, time.Since(t0))
		}
	}
	m["synth.warm_hit_us"] = us(median(direct))
	m["server.http_overhead_us"] = m["server.synth_p50_us"] - us(median(direct))

	// Traced pass: one client, every seeded request sent once without
	// and once with a span around the call, alternating which goes first.
	names := map[byte]string{'s': "server.synthesize", 'p': "server.parallelize", 'e': "server.execute"}
	var plain, extra []time.Duration
	for i := 0; i < 200; i++ {
		rq := s.draw(s.rng)
		var bare, traced time.Duration
		for pass := 0; pass < 2; pass++ {
			var err error
			if pass == i%2 {
				bare, err = timeIt(func() error { return s.do(ctx, rq) })
			} else {
				traced, err = tr.do(-1, i, "bench", "op", func(root int) error {
					_, err := tr.do(root, i, "server", names[rq.kind], func(int) error { return s.do(ctx, rq) })
					return err
				})
			}
			res.check(err)
		}
		plain = append(plain, bare)
		extra = append(extra, traced-bare)
	}
	m["bench.trace_overhead_pct"] = traceOverhead(median(plain)+median(extra), median(plain))
	return res, nil
}

func (s *serveState) close() error {
	s.conns.CloseIdleConnections()
	return s.node.stop()
}
