package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"kumquat/internal/obs"
	"kumquat/internal/par"
	"kumquat/internal/pipeline"
	"kumquat/internal/server/client"
)

// errNoWorkers reports an exhausted rotation: every worker is ejected
// and no probe readmitted one.
var errNoWorkers = errors.New("cluster: no healthy workers")

// latencies tracks completed shard latencies within one dispatch wave;
// the speculation threshold derives from its quantile.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

// record logs one completed shard's latency.
func (l *latencies) record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ds = append(l.ds, d)
}

// quantile returns the q-quantile of the recorded latencies (false when
// none have completed yet).
func (l *latencies) quantile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0, false
	}
	ds := make([]time.Duration, len(l.ds))
	copy(ds, l.ds)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q * float64(len(ds)-1))
	return ds[i], true
}

// runShards executes one segment's chunks across the cluster,
// concurrently, returning the per-shard outputs in shard order (the
// order the k-way combine's left fold needs for byte-identity with the
// local combine) and each shard's member output volumes.
func (co *Coordinator) runShards(ctx context.Context, seg *pipeline.Segment, chunks []string, st *Stats) ([]string, [][]int64, error) {
	ctx, csp := obs.StartSpan(ctx, "cluster-segment")
	csp.Attr("script", seg.Chain.Spec())
	csp.AttrInt("shards", int64(len(chunks)))
	defer csp.End()
	outs := make([]string, len(chunks))
	bytesOut := make([][]int64, len(chunks))
	errs := make([]error, len(chunks))
	lat := &latencies{}
	par.For(len(chunks), len(chunks), func(i int) {
		sctx, ssp := obs.StartSpan(ctx, "shard")
		ssp.AttrInt("shard", int64(i))
		outs[i], bytesOut[i], errs[i] = co.runShard(sctx, seg, i, chunks[i], lat, st)
		ssp.End()
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return outs, bytesOut, nil
}

// runShard resolves shard i: remote dispatch (with retries and
// speculation) first, local in-process execution as the last resort. It
// returns the output and the members' output volumes — from the
// worker's report, or measured by the local run. Shards are idempotent —
// the output is a pure function of (segment script, shard bytes) — so a
// re-run anywhere yields identical bytes.
func (co *Coordinator) runShard(ctx context.Context, seg *pipeline.Segment, i int, chunk string, lat *latencies, st *Stats) (string, []int64, error) {
	st.Shards.Add(1)
	start := time.Now()
	if co.cfg.OnShardLatency != nil {
		// Total shard resolution time: dispatch through final success or
		// failure, local fallback included.
		defer func() { co.cfg.OnShardLatency(time.Since(start)) }()
	}
	res, err := co.dispatch(ctx, seg, chunk, lat, st)
	if err == nil {
		lat.record(time.Since(start))
		st.RemoteRuns.Add(1)
		return res.out, res.bytesOut, nil
	}
	if ctx.Err() != nil {
		return "", nil, ctx.Err()
	}
	// Graceful degradation: the worker set failed this shard, so run it
	// in-process — the cluster only ever costs speed, not correctness.
	st.LocalRuns.Add(1)
	if span := obs.FromContext(ctx); span.Enabled() {
		span.EventAttr("local-fallback", "remote-error", err.Error())
	}
	out, bytesOut, lerr := seg.Run(i, chunk)
	if lerr != nil {
		return "", nil, fmt.Errorf("cluster: local fallback (remote: %v): %w", err, lerr)
	}
	return out, bytesOut, nil
}

// shardResult is one successful remote run of a segment over a shard:
// the output and every member's output volume, from the worker's
// per-stage report.
type shardResult struct {
	out      string
	bytesOut []int64
}

// dispatch races the shard's primary attempt chain against an optional
// speculative duplicate launched once the shard looks like a straggler.
// The first successful result wins; the loser is cancelled and its
// result discarded (safe: shards are idempotent, duplicates are
// byte-identical).
func (co *Coordinator) dispatch(ctx context.Context, seg *pipeline.Segment, chunk string, lat *latencies, st *Stats) (shardResult, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		shardResult
		err error
		dup bool // produced by the speculative duplicate
	}
	resc := make(chan result, 2) // never blocks: at most two senders
	var wg sync.WaitGroup
	defer wg.Wait()

	launch := func(dup bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := co.attempts(actx, seg, chunk, st)
			resc <- result{res, err, dup}
		}()
	}
	launch(false)

	var timerC <-chan time.Time
	if d, ok := co.specDelay(lat); ok {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timerC = timer.C
	}

	pending := 1
	var firstErr error
	for {
		select {
		case r := <-resc:
			pending--
			if r.err == nil {
				if r.dup {
					st.SpeculationWins.Add(1)
					obs.FromContext(ctx).Event("speculation-win")
				}
				cancel() // abandon the losing attempt, if still running
				return r.shardResult, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return shardResult{}, firstErr
			}
		case <-timerC:
			// The shard outlived the straggler threshold: re-dispatch it
			// speculatively. The in-flight accounting steers the duplicate
			// to a different worker than the one sitting on the original.
			timerC = nil
			st.Speculations.Add(1)
			obs.FromContext(ctx).Event("speculate")
			launch(true)
			pending++
		case <-actx.Done():
			return shardResult{}, actx.Err()
		}
	}
}

// specDelay resolves the straggler threshold for a shard starting now:
// the configured floor, raised to speculateFactor times the completed
// quantile once enough of the wave has finished.
func (co *Coordinator) specDelay(lat *latencies) (time.Duration, bool) {
	if co.cfg.SpeculateAfter < 0 {
		return 0, false
	}
	d := co.cfg.SpeculateAfter
	pol := co.cfg.recovery
	if q, ok := lat.quantile(pol.speculateQuantile); ok {
		if scaled := time.Duration(float64(q) * pol.speculateFactor); scaled > d {
			d = scaled
		}
	}
	return d, true
}

// attempts is one dispatch chain — the program's only retry loop: claim
// a worker, run the shard under the per-attempt deadline, and on failure
// back off (full jitter, floored at a 429's Retry-After) and retry on the
// next worker, up to retryMax re-dispatches. A worker whose report does
// not cover every stage of the script has failed the attempt.
func (co *Coordinator) attempts(ctx context.Context, seg *pipeline.Segment, chunk string, st *Stats) (shardResult, error) {
	span := obs.FromContext(ctx)
	pol := co.cfg.recovery
	var last error
	var avoid *worker
	for try := 0; try <= pol.retryMax; try++ {
		if try > 0 {
			st.Retries.Add(1)
			span.EventInt("retry", "attempt", int64(try))
			d := backoff(pol.retryBase, pol.retryCap, try-1, last)
			if co.cfg.OnRetryBackoff != nil {
				co.cfg.OnRetryBackoff(d)
			}
			if !sleep(ctx, d) {
				return shardResult{}, ctx.Err()
			}
		}
		w := co.pool.pick(ctx, avoid, st)
		if w == nil {
			// Every worker is ejected right now. Keep retrying: the backoff
			// before the next try doubles as cooldown time, so a recovering
			// worker can be probed back in before the chain gives up.
			switch {
			case last == nil:
				last = errNoWorkers
			case !errors.Is(last, errNoWorkers):
				last = fmt.Errorf("%w (last: %v)", errNoWorkers, last)
			}
			continue
		}
		span.EventAttr("dispatch", "worker", w.addr)
		actx, cancel := context.WithTimeout(ctx, co.cfg.ShardTimeout)
		out, stageBytes, err := w.runner.Run(actx, seg.Chain.Spec(), chunk)
		cancel()
		if err == nil {
			var bytesOut []int64
			if bytesOut, err = seg.MemberBytes(stageBytes); err == nil {
				co.pool.success(w)
				return shardResult{out, bytesOut}, nil
			}
			err = fmt.Errorf("cluster: worker %s %w", w.addr, err)
		}
		if ctx.Err() != nil {
			// The dispatch abandoned this attempt (the other attempt won
			// the shard, or the run was cancelled): not the worker's fault.
			co.pool.release(w)
			return shardResult{}, ctx.Err()
		}
		co.pool.failure(ctx, w, st)
		last = err
		avoid = w
	}
	return shardResult{}, last
}

// backoff computes the delay before retry number try+1: full jitter over
// the exponentially growing ceiling min(cap, base·2^try), floored at the
// worker's Retry-After hint when err is a client.BusyError. A cap ≤ 0
// leaves the growth unbounded. The ceiling saturates at the cap once
// base·2^try no longer fits a Duration, so a long retry chain keeps
// backing off instead of overflowing to a zero delay.
func backoff(base, cap time.Duration, try int, err error) time.Duration {
	base = max(base, 0)
	if cap <= 0 {
		cap = math.MaxInt64 - 1 // the jitter draw below needs ceil+1
	}
	shift := min(uint(try), 62)
	ceil := base << shift
	if ceil>>shift != base || ceil > cap {
		ceil = cap // overflowed, or past the cap
	}
	delay := time.Duration(rand.Int63n(int64(ceil) + 1))
	var busy *client.BusyError
	if errors.As(err, &busy) && busy.RetryAfter > delay {
		delay = busy.RetryAfter
	}
	return delay
}

// sleep waits for d or until ctx is done, reporting whether the full
// delay elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
