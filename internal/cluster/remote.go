package cluster

import (
	"context"
	"strings"

	"kumquat/internal/server/client"
)

// HTTPRunner executes shards on one worker daemon over the typed
// streaming client, one attempt per call. Retrying lives in the
// coordinator alone: it spreads re-dispatches across workers and counts
// every one.
type HTTPRunner struct {
	c *client.Client
}

// NewHTTPRunner builds the production runner for one worker address; a
// bare host:port (the -workers flag's natural spelling) gets an http://
// scheme. Per-attempt deadlines arrive via the coordinator's context, so
// the underlying client needs no timeout of its own.
func NewHTTPRunner(addr string) *HTTPRunner {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &HTTPRunner{c: client.New(addr)}
}

// Run executes the segment's script over the shard on the worker in
// serial mode — the shard is already the unit of parallelism, so the
// worker must not re-split it — and returns the output with each stage's
// output volume from the worker's run report. Cluster dispatch is forced
// off on the worker to keep a misconfigured worker-of-workers from
// recursing.
func (r *HTTPRunner) Run(ctx context.Context, script, input string) (string, []int64, error) {
	var out strings.Builder
	opts := client.ExecuteOptions{Mode: "serial", Cluster: "off"}
	rep, err := r.c.Execute(ctx, script, opts, strings.NewReader(input), &out)
	if err != nil {
		return "", nil, err
	}
	stageBytes := make([]int64, len(rep.Stages))
	for i, sg := range rep.Stages {
		stageBytes[i] = sg.BytesOut
	}
	return out.String(), stageBytes, nil
}

// Probe checks the worker's readiness endpoint, so a draining worker is
// not readmitted into the rotation.
func (r *HTTPRunner) Probe(ctx context.Context) error {
	return r.c.Readyz(ctx)
}
