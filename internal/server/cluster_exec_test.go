package server_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/server"
	"kumquat/internal/server/api"
	"kumquat/internal/server/client"
)

// bootCluster starts n loopback worker daemons and a coordinator
// dispatching to them, returning the coordinator's client and the worker
// servers (for mid-test kills).
func bootCluster(t *testing.T, n int) (*client.Client, []*httptest.Server) {
	t.Helper()
	var workers []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		wsrv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}})
		ws := httptest.NewServer(wsrv.Handler())
		t.Cleanup(ws.Close)
		workers = append(workers, ws)
		// Bare host:port, the -workers flag's natural spelling — the
		// runner must default the http:// scheme.
		urls = append(urls, strings.TrimPrefix(ws.URL, "http://"))
	}
	csrv := server.New(server.Config{
		SynthOptions: kumquat.Options{Seed: 1},
		Cluster: cluster.Config{
			Workers:        urls,
			Shards:         n,
			SpeculateAfter: -1,
		},
	})
	cs := httptest.NewServer(csrv.Handler())
	t.Cleanup(cs.Close)
	return client.New(cs.URL), workers
}

// localOracle computes the serial in-process output for a script+input.
func localOracle(t *testing.T, script, input string) string {
	t.Helper()
	sys := kumquat.New(kumquat.NewEnv())
	plan, err := sys.Parallelize(context.Background(), script+"\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Execute(context.Background(),
		kumquat.WithMode(kumquat.Serial),
		kumquat.WithStdin(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	return rep.Output
}

// TestClusterExecuteEndToEnd: an execute through the coordinator shards
// to real worker daemons, matches the serial oracle byte-for-byte, and
// reports the dispatch accounting in the cluster trailer.
func TestClusterExecuteEndToEnd(t *testing.T) {
	c, _ := bootCluster(t, 3)
	input := strings.Repeat("pear\napple\npear\nfig\n", 50)
	script := "sort | uniq -c | sort -rn"

	var out strings.Builder
	rep, err := c.Execute(context.Background(), script,
		client.ExecuteOptions{Cluster: "on"}, strings.NewReader(input), &out)
	if err != nil {
		t.Fatal(err)
	}
	if want := localOracle(t, script, input); out.String() != want {
		t.Fatalf("cluster output diverges from oracle:\n%q\nvs\n%q", out.String(), want)
	}
	if rep.Mode != kumquat.Optimized || rep.Cluster == nil {
		t.Fatalf("report mode = %v with cluster block %v, want optimized with one", rep.Mode, rep.Cluster)
	}
	if rep.Cluster.RemoteRuns == 0 || rep.Cluster.Shards == 0 {
		t.Fatalf("no remote dispatch recorded: %+v", rep.Cluster)
	}
	if rep.Cluster.Workers != 3 || rep.Cluster.Healthy != 3 {
		t.Fatalf("worker accounting wrong: %+v", rep.Cluster)
	}
}

// TestClusterExecuteDegradesOnDeadWorkers: with every worker killed, the
// coordinator falls back to local execution — same bytes, LocalRuns
// counted, workers ejected.
func TestClusterExecuteDegradesOnDeadWorkers(t *testing.T) {
	c, workers := bootCluster(t, 2)
	for _, ws := range workers {
		ws.Close()
	}
	input := "b\na\nc\na\n"
	script := "sort | uniq -c"

	var out strings.Builder
	rep, err := c.Execute(context.Background(), script,
		client.ExecuteOptions{Cluster: "on"}, strings.NewReader(input), &out)
	if err != nil {
		t.Fatalf("dead cluster must degrade, not fail: %v", err)
	}
	if want := localOracle(t, script, input); out.String() != want {
		t.Fatalf("degraded output corrupted: %q vs %q", out.String(), want)
	}
	if rep.Cluster == nil || rep.Cluster.LocalRuns == 0 {
		t.Fatalf("local fallback not recorded: %+v", rep.Cluster)
	}
	if rep.Cluster.RemoteRuns != 0 {
		t.Fatalf("dead cluster reported remote runs: %+v", rep.Cluster)
	}
	if rep.Cluster.Ejections == 0 {
		t.Fatalf("dead workers never ejected: %+v", rep.Cluster)
	}
}

// TestClusterParamValidation: cluster=on without workers is a client
// error; cluster=off on a coordinator forces the in-process path.
func TestClusterParamValidation(t *testing.T) {
	_, plain := newTestServer(t, server.Config{SynthOptions: kumquat.Options{Seed: 1}})
	var out strings.Builder
	_, err := plain.Execute(context.Background(), "sort",
		client.ExecuteOptions{Cluster: "on"}, strings.NewReader("b\na\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("cluster=on without workers = %v, want config error", err)
	}

	c, _ := bootCluster(t, 2)
	out.Reset()
	rep, err := c.Execute(context.Background(), "sort",
		client.ExecuteOptions{Cluster: "off"}, strings.NewReader("b\na\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cluster != nil {
		t.Fatalf("cluster=off still dispatched remotely: %+v", rep)
	}
	if out.String() != "a\nb\n" {
		t.Fatalf("local path output = %q", out.String())
	}
}

// TestClusterVersionAndMetrics: coordinator surfaces its worker list in
// /v1/version and the cluster gauges in /metrics.
func TestClusterVersionAndMetrics(t *testing.T) {
	c, _ := bootCluster(t, 3)
	ctx := context.Background()
	ver, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ver.Workers) != 3 {
		t.Fatalf("version workers = %v, want 3 entries", ver.Workers)
	}
	var out strings.Builder
	if _, err := c.Execute(ctx, "wc -l", client.ExecuteOptions{Cluster: "on"},
		strings.NewReader("a\nb\nc\n"), &out); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"kumquatd_cluster_workers 3", "kumquatd_cluster_healthy 3", "kumquatd_cluster_shards"} {
		if !strings.Contains(metrics, g) {
			t.Fatalf("metrics missing %q:\n%s", g, metrics)
		}
	}
}

// TestClusterReportMatchesLocal: a cluster run is the one script-run loop
// over the Optimized program with remote leaves, so its output and its
// report must be those of the same loop run locally in Optimized mode at
// k = shards over the same materialized input — a `cat FILE` source, since
// Optimized keeps a streamed stdin live. That holds for a single pipeline,
// for a script whose redirect a later pipeline consumes, for a split
// segment, and for a fused region feeding one. Only what a clock, the
// dispatch plane or request order decide is normalized away: walls, the
// cluster block, cache warmth.
func TestClusterReportMatchesLocal(t *testing.T) {
	c, _ := bootCluster(t, 3)
	input := strings.Repeat("pear\nApple\nPEAR\nfig\nkiwi\napple\n", 40)
	normalize := func(rep *api.ExecuteReport) {
		rep.Cluster, rep.Wall = nil, 0
		rep.SynthCache = kumquat.SynthCacheStats{}
		for i := range rep.Stages {
			rep.Stages[i].Wall, rep.Stages[i].CombineWall = 0, 0
		}
		for i := range rep.Regions {
			rep.Regions[i].Wall, rep.Regions[i].CombineWall = 0, 0
		}
	}
	for _, script := range []string{
		"cat in.txt | sort | uniq -c",
		"cat in.txt | sort > tmp.txt\ncat tmp.txt | uniq -c",
		// tr's split exit joins it and sort into one shipped segment; a
		// cluster run still reports both members' chunks and volumes.
		"cat in.txt | tr A-Z a-z | sort",
		// A fused region (tr | grep) feeding sort through a split exit.
		"cat in.txt | tr A-Z a-z | grep a | sort",
	} {
		var cout, lout strings.Builder
		crep, err := c.Execute(context.Background(), script,
			client.ExecuteOptions{Cluster: "on"}, strings.NewReader(input), &cout)
		if err != nil {
			t.Fatalf("%q cluster: %v", script, err)
		}
		lrep, err := c.Execute(context.Background(), script,
			client.ExecuteOptions{Cluster: "off", Mode: "optimized", K: 3}, strings.NewReader(input), &lout)
		if err != nil {
			t.Fatalf("%q local: %v", script, err)
		}
		if cout.String() != lout.String() {
			t.Fatalf("%q: cluster output diverges from local:\n%q\nvs\n%q", script, cout.String(), lout.String())
		}
		if crep.Mode != kumquat.Optimized || crep.Parallelism != 3 || crep.Cluster == nil || crep.Cluster.RemoteRuns == 0 {
			t.Fatalf("%q: cluster report lost its stamp: %+v", script, crep)
		}
		if crep.BytesIn == 0 || crep.BytesOut != int64(cout.Len()) {
			t.Fatalf("%q: byte totals %d in / %d out for %d output bytes", script, crep.BytesIn, crep.BytesOut, cout.Len())
		}
		normalize(crep)
		normalize(lrep)
		if !reflect.DeepEqual(crep, lrep) {
			t.Errorf("%q: reports differ\ncluster %+v\nlocal   %+v", script, crep, lrep)
		}
	}
}

// TestClusterSortFeedsDispatchedConsumer: a sort feeding a streamable
// consumer combines on the coordinator, and the consumer is then its own
// dispatched segment, so `sort | grep a` ships two segments of Shards
// shards each — with bytes identical to a local run.
func TestClusterSortFeedsDispatchedConsumer(t *testing.T) {
	const shards = 3
	c, _ := bootCluster(t, shards)
	input := strings.Repeat("pear\napple\nfig\nbanana\nkiwi\n", 40)
	script := "sort | grep a"

	var cout, lout strings.Builder
	rep, err := c.Execute(context.Background(), script,
		client.ExecuteOptions{Cluster: "on"}, strings.NewReader(input), &cout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), script,
		client.ExecuteOptions{Cluster: "off", Mode: "optimized", K: shards}, strings.NewReader(input), &lout); err != nil {
		t.Fatal(err)
	}
	if cout.String() != lout.String() {
		t.Fatalf("cluster output diverges from local:\n%q\nvs\n%q", cout.String(), lout.String())
	}
	if rep.Cluster == nil || rep.Cluster.Shards != 2*shards {
		t.Fatalf("cluster report %+v, want %d shards (two segments of %d)", rep.Cluster, 2*shards, shards)
	}
}
