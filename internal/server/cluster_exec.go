package server

import (
	"bytes"
	"io"
	"net/http"

	"kumquat"
	"kumquat/internal/server/api"
	"kumquat/internal/textio"
)

// executeCluster serves an execute request through the cluster
// coordinator: the plan's one script-run loop with the coordinator as its
// leaf runner, so parallel segments shard across the worker daemons (with
// retry, speculation and local fallback). The report is the local path's
// — mode optimized — extended with the run's ClusterReport.
// Like every failing path of handleExecute it answers the client itself
// and returns the error.
func (s *Server) executeCluster(w http.ResponseWriter, r *http.Request, plan *kumquat.Plan, stdin io.Reader, presize int, sink kumquat.ExecOption) (*api.ExecuteReport, error) {
	// Cluster dispatch shards a materialized corpus, so drain stdin once
	// up front into one buffer of its declared size (the status line is
	// not committed yet: read failures can still answer 400/413 instead
	// of hiding in a trailer). The walk takes that buffer as it is.
	var body []byte
	if stdin != nil {
		var err error
		if body, err = textio.ReadAll(stdin, presize); err != nil {
			writeError(w, bodyErrStatus(err), "reading request body: %v", err)
			return nil, err
		}
	}
	run, cr, err := s.clu.Execute(r.Context(), plan, sink, kumquat.WithStdin(bytes.NewBuffer(body)))
	if err != nil {
		w.Header().Set(api.ErrorTrailer, err.Error())
		return nil, err
	}
	return &api.ExecuteReport{RunReport: *run, Cluster: &cr}, nil
}
