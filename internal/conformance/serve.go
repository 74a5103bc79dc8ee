package conformance

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"kumquat"
	"kumquat/internal/server"
	"kumquat/internal/server/client"
)

// ServeReport summarizes the kumquatd replay: the generated suite pushed
// through a live loopback daemon over the typed client and held to the
// same serial oracle as the in-process executors.
type ServeReport struct {
	// Cases is how many generated cases were replayed.
	Cases int `json:"cases"`
	// K is the data-parallelism degree each replayed execute requested.
	K int `json:"k"`
	// PlansChecked counts the /v1/parallelize calls whose stage counts
	// were cross-checked against the local planner.
	PlansChecked int `json:"plans_checked"`
	// Divergences lists every case whose daemon-streamed output differed
	// from the local serial oracle, plus any plan-count mismatches.
	Divergences []Divergence `json:"divergences"`
}

// ReplayOptions configures ReplayServe.
type ReplayOptions struct {
	// K is the data-parallelism degree each replayed execute requests.
	K int
	// SynthWorkers bounds the replay daemon's synthesis worker pool
	// (0 = GOMAXPROCS), mirroring Options.SynthWorkers.
	SynthWorkers int
}

// ReplayServe boots an in-process kumquatd on a loopback listener and
// replays every generated case through POST /v1/execute with the corpus
// streamed as the request body, comparing the streamed output
// byte-for-byte against the local serial oracle computed through sys.
// Each distinct script is also planned through POST /v1/parallelize and
// its stage verdict counts cross-checked against the local planner —
// the HTTP plane must tell the same planning story the library tells.
func ReplayServe(ctx context.Context, sys *kumquat.System, cases []*Case, opts ReplayOptions) (*ServeReport, error) {
	return replayServe(ctx, sys, cases, opts, nil)
}

// replayServe is ReplayServe with optional precomputed oracle outcomes
// (index-aligned with cases); Run supplies them so the serve replay does
// not re-execute serial runs the differential sweep already performed.
func replayServe(ctx context.Context, sys *kumquat.System, cases []*Case, opts ReplayOptions, oracles []oracleResult) (*ServeReport, error) {
	srv := server.New(server.Config{
		SynthOptions: kumquat.Options{Seed: 1, Workers: opts.SynthWorkers},
	})
	var serving sync.WaitGroup
	defer serving.Wait()
	n, err := bootNode(srv.Handler(), &serving)
	if err != nil {
		return nil, err
	}
	// Every replayed request has returned by teardown, so a hard close
	// loses nothing.
	defer n.kill()
	c := client.New(n.url)

	rep := &ServeReport{Cases: len(cases), K: opts.K, Divergences: []Divergence{}}
	plannedScripts := map[string]bool{}
	for i, cs := range cases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var oracle oracleResult
		if i < len(oracles) {
			oracle = oracles[i]
		} else {
			oracle.out, oracle.err = reference(cs)
		}

		var out strings.Builder
		_, gotErr := c.Execute(ctx, cs.Script, client.ExecuteOptions{K: opts.K},
			strings.NewReader(cs.Corpus), &out)
		cfg := Config{Mode: "serve/" + kumquat.Optimized.String(), K: opts.K}
		if detail, ok := diverges(oracle.out, oracle.err, out.String(), gotErr); !ok {
			rep.Divergences = append(rep.Divergences, Divergence{
				Case: cs.forReport(), Config: cfg, Detail: detail,
			})
		}

		if plannedScripts[cs.Script] {
			continue
		}
		plannedScripts[cs.Script] = true
		resp, err := c.Parallelize(ctx, cs.Script, nil)
		if err != nil {
			rep.Divergences = append(rep.Divergences, Divergence{
				Case: cs.forReport(), Config: Config{Mode: "serve/parallelize"},
				Detail: fmt.Sprintf("parallelize failed: %v", err),
			})
			continue
		}
		// The local plan only cross-checks a not-yet-seen script's counts;
		// repeated scripts skip compilation entirely.
		localPlan, err := compileCase(ctx, sys, cs)
		if err != nil {
			return nil, fmt.Errorf("conformance: serve plan compile: %w", err)
		}
		rep.PlansChecked++
		par, total, elim := localPlan.Counts()
		if resp.Parallelized != par || resp.Total != total || resp.Eliminated != elim {
			rep.Divergences = append(rep.Divergences, Divergence{
				Case: cs.forReport(), Config: Config{Mode: "serve/parallelize"},
				Detail: fmt.Sprintf("plan counts differ: server %d/%d/%d vs local %d/%d/%d",
					resp.Parallelized, resp.Total, resp.Eliminated, par, total, elim),
			})
		}
	}
	return rep, nil
}
