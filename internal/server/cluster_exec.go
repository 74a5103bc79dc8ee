package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/obs"
)

// executeCluster serves an execute request through the cluster
// coordinator: each pipeline runs through the one executor with the
// coordinator as its leaf runner, so parallel stages shard across the
// worker daemons (with retry, speculation and local fallback), and the
// combined output streams back with the usual report trailer — extended
// with the run's ClusterReport. Semantics are the in-process unoptimized
// execution's: stage boundaries are barriers, `> FILE` redirects register
// into the request environment, and standard input feeds the first
// stdin-reading pipeline.
func (s *Server) executeCluster(w http.ResponseWriter, r *http.Request, env *kumquat.Env, plan *kumquat.Plan, stdin io.Reader, combineWorkers int, sink io.Writer, span *obs.Span, remoteTrace bool) {
	// Cluster dispatch shards a materialized corpus, so drain stdin once
	// up front (the status line is not committed yet: read failures can
	// still answer 400/413 instead of hiding in a trailer). One reader serves
	// the whole script: standard input feeds the first stdin-reading
	// pipeline; later ones see it already drained, as in the local
	// executor.
	var body bytes.Reader
	if stdin != nil {
		b, err := io.ReadAll(stdin)
		if err != nil {
			s.endTrace(w, span, remoteTrace, nil)
			writeError(w, bodyErrStatus(err), "reading request body: %v", err)
			return
		}
		body.Reset(b)
	}

	rep := ExecuteReport{
		Mode:        "cluster",
		Parallelism: s.clu.Shards(),
		SynthCache:  plan.SynthCache(),
	}
	plans := plan.PipelinePlans()
	outs := plan.OutputFiles()
	runStats := &cluster.Stats{}
	start := time.Now()
	for i, pl := range plans {
		var target io.Writer = sink
		var redirect *strings.Builder
		if outs[i] != "" {
			redirect = &strings.Builder{}
			target = redirect
		}
		stages, st, err := s.clu.ExecutePlan(r.Context(), env.Unix(), pl, &body, target, combineWorkers)
		runStats.AddAll(st)
		if err != nil {
			s.endTrace(w, span, remoteTrace, nil)
			w.Header().Set(ErrorTrailer, err.Error())
			return
		}
		for _, cs := range stages {
			rep.Stages = append(rep.Stages, ExecuteStage{
				Spec:          cs.Spec,
				Parallel:      cs.Remote,
				Chunks:        cs.Shards,
				WallMS:        ms(cs.Wall),
				CombineWallMS: ms(cs.CombineWall),
				BytesIn:       cs.BytesIn,
				BytesOut:      cs.BytesOut,
			})
		}
		if redirect != nil {
			// Redirected pipelines count toward neither stream total,
			// matching the in-process report semantics.
			env.Register(outs[i], redirect.String())
		} else if n := len(stages); n > 0 {
			rep.BytesIn += stages[0].BytesIn
			rep.BytesOut += stages[n-1].BytesOut
		}
	}
	rep.WallMS = ms(time.Since(start))
	s.endTrace(w, span, remoteTrace, &rep)
	snap := runStats.Snapshot()
	rep.Cluster = &ClusterReport{
		Workers:         len(s.clu.Workers()),
		Healthy:         s.clu.Healthy(),
		Shards:          snap.Shards,
		RemoteRuns:      snap.RemoteRuns,
		LocalRuns:       snap.LocalRuns,
		Retries:         snap.Retries,
		Speculations:    snap.Speculations,
		SpeculationWins: snap.SpeculationWins,
		Ejections:       snap.Ejections,
		Readmissions:    snap.Readmissions,
	}
	report, merr := json.Marshal(rep)
	if merr != nil {
		w.Header().Set(ErrorTrailer, merr.Error())
		return
	}
	w.Header().Set(ReportTrailer, string(report))
}
