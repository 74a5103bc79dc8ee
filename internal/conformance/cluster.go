package conformance

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/faultinject"
	"kumquat/internal/obs"
	"kumquat/internal/server"
	"kumquat/internal/server/client"
)

// ChaosReport summarizes the cluster chaos replay: the generated suite
// pushed through a loopback 3-worker cluster whose every worker sits
// behind a fault-injecting proxy, held to the same serial oracle as
// every other plane. Beyond byte-identity, the report carries the
// failure-handling counters the CI gate checks — a green run must have
// actually injected faults and actually recovered from them.
type ChaosReport struct {
	// Cases is how many generated cases were replayed; Workers and
	// Shards echo the cluster topology.
	Cases   int `json:"cases"`
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// Divergences lists every case whose cluster output differed from
	// the serial oracle (empty on a healthy tree — faults and worker
	// kills included).
	Divergences []Divergence `json:"divergences"`
	// Retries, Speculations, SpeculationWins, RemoteRuns, LocalRuns,
	// Ejections and Readmissions aggregate the per-run ClusterReport
	// trailers across the suite.
	Retries         int64 `json:"retries"`
	Speculations    int64 `json:"speculations"`
	SpeculationWins int64 `json:"speculation_wins"`
	RemoteRuns      int64 `json:"remote_runs"`
	LocalRuns       int64 `json:"local_runs"`
	Ejections       int64 `json:"ejections"`
	Readmissions    int64 `json:"readmissions"`
	// DegradedCases counts cases that needed at least one local-fallback
	// shard (nonzero once the worker kills start).
	DegradedCases int `json:"degraded_cases"`
	// FaultsInjected totals the faults the proxies dealt; Faults breaks
	// them down by type.
	FaultsInjected int64            `json:"faults_injected"`
	Faults         map[string]int64 `json:"faults"`
	// WorkerKilledAt and ClusterKilledAt are the case indices at which
	// one worker and then the whole worker set were hard-killed
	// (-1 = never, for very short suites).
	WorkerKilledAt  int `json:"worker_killed_at"`
	ClusterKilledAt int `json:"cluster_killed_at"`
	// TraceSample is a full stitched trace from the most eventful case of
	// the suite (preferring runs with remote shards, then runs that saw
	// retries and speculation): coordinator spans plus the worker spans
	// shipped back in trace trailers, fetched from the coordinator's ring
	// right after the run so eviction can't race it. Nil only if every
	// fetch failed.
	TraceSample *obs.TraceData `json:"trace_sample,omitempty"`
	// TraceSpans, TraceProcs, TraceRetryEvents and TraceSpeculationEvents
	// summarize the sample: span count, distinct process names (≥2 proves
	// cross-worker stitching), and how many retry/speculate span events it
	// carries.
	TraceSpans             int `json:"trace_spans"`
	TraceProcs             int `json:"trace_procs"`
	TraceRetryEvents       int `json:"trace_retry_events"`
	TraceSpeculationEvents int `json:"trace_speculation_events"`
}

// ClusterOptions configures ReplayCluster.
type ClusterOptions struct {
	// Seed picks where each proxy starts faultinject's fault cycle; the
	// three proxies start a third of the cycle apart.
	Seed int64
	// SynthWorkers bounds each daemon's synthesis worker pool
	// (0 = GOMAXPROCS).
	SynthWorkers int
}

// node is one loopback daemon (worker or coordinator) with its lifecycle
// handles.
type node struct {
	hs    *http.Server
	ln    net.Listener
	url   string
	alive bool
}

// bootNode starts handler on a loopback listener, its Serve goroutine
// joined through serving.
func bootNode(handler http.Handler, serving *sync.WaitGroup) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("conformance: listen: %w", err)
	}
	hs := &http.Server{Handler: handler}
	serving.Add(1)
	go func() {
		defer serving.Done()
		hs.Serve(ln) //nolint:errcheck // closed by kill below
	}()
	return &node{hs: hs, ln: ln, url: "http://" + ln.Addr().String(), alive: true}, nil
}

// kill hard-stops the node: the listener and every live connection close
// immediately, as a crashed process would.
func (n *node) kill() {
	if !n.alive {
		return
	}
	n.alive = false
	n.hs.Close() //nolint:errcheck // teardown
}

// ReplayCluster boots a loopback cluster — three worker kumquatds, each
// behind a fault-injecting proxy, and a coordinator kumquatd dispatching
// to the proxies — then replays every generated case through the
// coordinator over the typed client and diffs the streamed output
// against the serial oracle. At 60% of the suite worker 0 is
// hard-killed; at 80% the remaining workers follow, forcing the
// coordinator into local fallback for the tail of the suite. oracles
// optionally carries precomputed serial outcomes, index-aligned with
// cases (missing entries are computed here).
func ReplayCluster(ctx context.Context, cases []*Case, opts ClusterOptions, oracles []oracleResult) (*ChaosReport, error) {
	const workers = 3
	var serving sync.WaitGroup
	defer serving.Wait()

	// Workers and their chaos proxies.
	var workerNodes, proxyNodes []*node
	var proxies []*faultinject.Proxy
	defer func() {
		for _, n := range proxyNodes {
			n.kill()
		}
		for _, n := range workerNodes {
			n.kill()
		}
	}()
	var proxyURLs []string
	for i := 0; i < workers; i++ {
		wsrv := server.New(server.Config{
			SynthOptions: kumquat.Options{Seed: 1, Workers: opts.SynthWorkers},
			TraceProc:    fmt.Sprintf("worker%d", i),
		})
		wn, err := bootNode(wsrv.Handler(), &serving)
		if err != nil {
			return nil, err
		}
		workerNodes = append(workerNodes, wn)
		// 8 is a third of faultinject's 24-entry cycle: of the three
		// proxies' n-th requests, at most one meets a fault.
		proxy, err := faultinject.New(wn.url, opts.Seed+int64(i)*8)
		if err != nil {
			return nil, err
		}
		pn, err := bootNode(proxy, &serving)
		if err != nil {
			return nil, err
		}
		proxies = append(proxies, proxy)
		proxyNodes = append(proxyNodes, pn)
		proxyURLs = append(proxyURLs, pn.url)
	}

	// The coordinator dispatches through the proxies with the production
	// recovery policy. The one deployment setting scaled for a loopback
	// suite is the speculation floor: just above a healthy shard's latency
	// and well below the proxies' stall, so stalls reliably trigger
	// speculative re-dispatch.
	csrv := server.New(server.Config{
		SynthOptions: kumquat.Options{Seed: 1, Workers: opts.SynthWorkers},
		TraceProc:    "coordinator",
		Cluster: cluster.Config{
			Workers:        proxyURLs,
			Shards:         workers,
			SpeculateAfter: 150 * time.Millisecond,
		},
	})
	cn, err := bootNode(csrv.Handler(), &serving)
	if err != nil {
		return nil, err
	}
	defer cn.kill()

	// The replay client talks straight to the coordinator (no proxy fronts
	// it), so every fault and every retry happens on the coordinator's
	// shard dispatch.
	c := client.New(cn.url)

	rep := &ChaosReport{
		Cases: len(cases), Workers: workers, Shards: workers,
		Divergences: []Divergence{}, Faults: map[string]int64{},
		WorkerKilledAt: -1, ClusterKilledAt: -1,
	}
	killOne, killAll := len(cases)*6/10, len(cases)*8/10
	bestTrace := -1 // score of the sampled trace's run so far
	for i, cs := range cases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i == killOne && killOne < killAll {
			workerNodes[0].kill()
			rep.WorkerKilledAt = i
		}
		if i == killAll && killAll > 0 {
			for _, wn := range workerNodes {
				wn.kill()
			}
			rep.ClusterKilledAt = i
		}

		var oracle oracleResult
		if i < len(oracles) {
			oracle = oracles[i]
		} else {
			oracle.out, oracle.err = reference(cs)
		}

		// Every case runs traced: tracing rides the same requests the
		// untraced replay would make, so the proxies walk their fault
		// cycles over the same requests either way.
		var out strings.Builder
		run, gotErr := c.Execute(ctx, cs.Script, client.ExecuteOptions{Cluster: "on", Trace: "on"},
			strings.NewReader(cs.Corpus), &out)
		if detail, ok := diverges(oracle.out, oracle.err, out.String(), gotErr); !ok {
			rep.Divergences = append(rep.Divergences, Divergence{
				Case:   cs.forReport(),
				Config: Config{Mode: "cluster/" + kumquat.Optimized.String(), K: workers},
				Detail: detail,
			})
		}
		if run != nil && run.Cluster != nil {
			rep.Retries += run.Cluster.Retries
			rep.Speculations += run.Cluster.Speculations
			rep.SpeculationWins += run.Cluster.SpeculationWins
			rep.RemoteRuns += run.Cluster.RemoteRuns
			rep.LocalRuns += run.Cluster.LocalRuns
			rep.Ejections += run.Cluster.Ejections
			rep.Readmissions += run.Cluster.Readmissions
			if run.Cluster.LocalRuns > 0 {
				rep.DegradedCases++
			}
			// Sample the most eventful run's stitched trace. Fetch it
			// immediately — the coordinator's ring evicts old traces, so
			// waiting until the end of the suite could lose it.
			if run.Trace != nil {
				// A run with a remote shard outranks any all-local one: only
				// it can show coordinator and worker spans stitched together.
				score := 0
				if run.Cluster.RemoteRuns > 0 {
					score += 5
				}
				if run.Cluster.Retries > 0 {
					score += 2
				}
				if run.Cluster.Speculations > 0 {
					score += 2
				}
				if score > bestTrace {
					// Direct to the coordinator: trace fetches never touch
					// the fault proxies, so they take no fault cycle entry.
					if td, terr := c.TraceData(ctx, run.Trace.TraceID); terr == nil {
						bestTrace = score
						rep.TraceSample = td
					}
				}
			}
		}
	}
	if td := rep.TraceSample; td != nil {
		rep.TraceSpans = len(td.Spans)
		procs := map[string]bool{}
		for _, sp := range td.Spans {
			procs[sp.Proc] = true
			for _, ev := range sp.Events {
				switch ev.Name {
				case "retry":
					rep.TraceRetryEvents++
				case "speculate":
					rep.TraceSpeculationEvents++
				}
			}
		}
		rep.TraceProcs = len(procs)
	}
	for _, p := range proxies {
		for f, n := range p.Counts() {
			if f == faultinject.FaultNone {
				continue
			}
			rep.Faults[string(f)] += n
			rep.FaultsInjected += n
		}
	}
	return rep, nil
}
