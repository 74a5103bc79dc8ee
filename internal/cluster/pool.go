package cluster

import (
	"context"
	"sync"
	"time"

	"kumquat/internal/obs"
)

// worker is one remote daemon's health record.
type worker struct {
	addr   string
	runner Runner
	// The fields below are guarded by the owning pool's mutex.
	fails     int       // consecutive failures
	ejected   bool      // out of the rotation
	ejectedAt time.Time // when the ejection happened
	inflight  int       // attempts currently running on this worker
}

// pool is the worker set with health-based rotation: failures eject,
// cooldown-expired probes readmit, and pick prefers the least-loaded
// healthy worker so retries and speculation spread across the cluster.
type pool struct {
	cfg     Config
	mu      sync.Mutex
	workers []*worker
}

// newPool builds the pool over the configured worker addresses.
func newPool(cfg Config) *pool {
	p := &pool{cfg: cfg}
	for _, addr := range cfg.Workers {
		p.workers = append(p.workers, &worker{addr: addr, runner: cfg.NewRunner(addr)})
	}
	return p
}

// healthy counts workers currently in the rotation.
func (p *pool) healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if !w.ejected {
			n++
		}
	}
	return n
}

// pick claims a healthy worker for one attempt, preferring the
// least-loaded and avoiding the given worker (the previous attempt's
// target) when any alternative exists. If the rotation is empty,
// ejected workers whose cooldown has expired are probed (bounded by
// probeTimeout) and readmitted on success. Returns nil when no worker
// can be claimed — the caller degrades to local execution. Every
// non-nil claim must be released via success or failure.
func (p *pool) pick(ctx context.Context, avoid *worker, st *Stats) *worker {
	if w := p.claim(avoid); w != nil {
		return w
	}
	// Rotation exhausted: try to readmit a cooled-down ejected worker.
	for _, w := range p.cooled() {
		pctx, cancel := context.WithTimeout(ctx, p.cfg.recovery.probeTimeout)
		err := w.runner.Probe(pctx)
		cancel()
		p.mu.Lock()
		if err != nil {
			w.ejectedAt = time.Now() // probe failed: restart the cooldown
			p.mu.Unlock()
			continue
		}
		if w.ejected {
			w.ejected = false
			w.fails = 0
			st.Readmissions.Add(1)
			obs.FromContext(ctx).EventAttr("readmit-worker", "worker", w.addr)
			p.cfg.Logger.Info("worker readmitted", "worker", w.addr)
		}
		w.inflight++
		p.mu.Unlock()
		return w
	}
	return nil
}

// claim picks the best available worker under the lock, or nil. A
// non-avoided worker always beats the avoided one; ties break on
// in-flight load.
func (p *pool) claim(avoid *worker) *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *worker
	for _, w := range p.workers {
		if w.ejected {
			continue
		}
		switch {
		case best == nil:
			best = w
		case (w != avoid) != (best != avoid):
			if w != avoid {
				best = w
			}
		case w.inflight < best.inflight:
			best = w
		}
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// cooled lists ejected workers whose cooldown has expired.
func (p *pool) cooled() []*worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*worker
	for _, w := range p.workers {
		if w.ejected && time.Since(w.ejectedAt) >= p.cfg.recovery.ejectCooldown {
			out = append(out, w)
		}
	}
	return out
}

// success releases a claim after a completed attempt and resets the
// worker's failure streak.
func (p *pool) success(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.inflight--
	w.fails = 0
}

// failure releases a claim after a failed attempt, ejecting the worker
// once its consecutive-failure streak reaches the threshold. ctx carries
// the dispatching shard's span, so ejections land on the trace that
// caused them.
func (p *pool) failure(ctx context.Context, w *worker, st *Stats) {
	p.mu.Lock()
	w.inflight--
	w.fails++
	ejected := false
	fails := w.fails
	if !w.ejected && w.fails >= p.cfg.recovery.ejectAfter {
		w.ejected = true
		w.ejectedAt = time.Now()
		st.Ejections.Add(1)
		ejected = true
	}
	p.mu.Unlock()
	if ejected {
		obs.FromContext(ctx).EventAttr("eject-worker", "worker", w.addr)
		p.cfg.Logger.Warn("worker ejected", "worker", w.addr, "fails", fails)
	}
}
