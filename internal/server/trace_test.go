package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/obs"
	"kumquat/internal/server"
	"kumquat/internal/server/client"
)

// bootTracedCluster starts n loopback workers and a coordinator with
// distinct trace process names, so stitched traces can prove which
// daemon recorded which span.
func bootTracedCluster(t *testing.T, n int) (*client.Client, string) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		wsrv := server.New(server.Config{
			SynthOptions: kumquat.Options{Seed: 1},
			TraceProc:    "worker" + string(rune('0'+i)),
		})
		ws := httptest.NewServer(wsrv.Handler())
		t.Cleanup(ws.Close)
		urls = append(urls, ws.URL)
	}
	csrv := server.New(server.Config{
		SynthOptions: kumquat.Options{Seed: 1},
		TraceProc:    "coordinator",
		Cluster: cluster.Config{
			Workers:        urls,
			Shards:         n,
			SpeculateAfter: -1,
		},
	})
	cs := httptest.NewServer(csrv.Handler())
	t.Cleanup(cs.Close)
	return client.New(cs.URL), cs.URL
}

// TestTracePropagationAcrossCluster is the tentpole acceptance test: one
// traced execute through a live loopback coordinator+worker cluster must
// yield a SINGLE stitched trace — coordinator spans (execute, segment
// dispatch, shards) and worker spans (rpc execute, plan, run, stages)
// sharing one trace id, joined into one tree via the traceparent header
// out and the trace trailer back.
func TestTracePropagationAcrossCluster(t *testing.T) {
	c, _ := bootTracedCluster(t, 2)
	ctx := context.Background()

	var out strings.Builder
	rep, err := c.Execute(ctx, "sort | uniq -c",
		client.ExecuteOptions{Cluster: "on", Trace: "on"},
		strings.NewReader("b\na\nb\nc\na\nb\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("traced execute returned no trace summary")
	}
	if rep.Trace.Spans < 4 {
		t.Fatalf("trace summary spans = %d, want coordinator+worker coverage", rep.Trace.Spans)
	}

	td, err := c.TraceData(ctx, rep.Trace.TraceID)
	if err != nil {
		t.Fatal(err)
	}

	// One trace: every span carries the summary's trace id.
	byID := map[string]obs.SpanRecord{}
	names := map[string]int{}
	procs := map[string]int{}
	for _, sp := range td.Spans {
		if sp.TraceID != rep.Trace.TraceID {
			t.Fatalf("span %s has trace id %s, want %s", sp.Name, sp.TraceID, rep.Trace.TraceID)
		}
		byID[sp.SpanID] = sp
		names[sp.Name]++
		procs[sp.Proc]++
	}

	// Cross-worker stitching: the coordinator's spans and at least one
	// worker's spans landed in the same trace.
	if procs["coordinator"] == 0 {
		t.Fatalf("no coordinator spans in stitched trace: %v", procs)
	}
	if procs["worker0"]+procs["worker1"] == 0 {
		t.Fatalf("no worker spans in stitched trace: %v", procs)
	}

	// Layer coverage: the trace spans planning, synthesis, stage
	// execution and shard dispatch end to end.
	for _, want := range []string{"execute", "plan", "cluster-segment", "shard", "rpc execute", "run", "stage", "synth"} {
		if names[want] == 0 {
			t.Errorf("stitched trace has no %q span: %v", want, names)
		}
	}

	// One tree: every non-root span's parent is present, and each
	// worker's rpc root hangs off a coordinator shard span.
	roots := 0
	for _, sp := range td.Spans {
		if sp.ParentID == "" {
			roots++
			continue
		}
		parent, ok := byID[sp.ParentID]
		if !ok {
			t.Fatalf("span %s (%s) orphaned: parent %s not in trace", sp.Name, sp.Proc, sp.ParentID)
		}
		if sp.Name == "rpc execute" && parent.Name != "shard" {
			t.Errorf("worker rpc span parented to %q, want the coordinator shard span", parent.Name)
		}
	}
	if roots != 1 {
		t.Fatalf("stitched trace has %d roots, want exactly 1", roots)
	}

	// Dispatch accounting rides the shard spans as events.
	dispatches := 0
	for _, sp := range td.Spans {
		if sp.Name != "shard" {
			continue
		}
		for _, ev := range sp.Events {
			if ev.Name == "dispatch" {
				dispatches++
			}
		}
	}
	if dispatches == 0 {
		t.Error("no dispatch events recorded on shard spans")
	}
}

// TestTraceLocalExecute: ?trace=on on a plain (non-cluster) daemon
// records the in-process layers, and the default export is Chrome
// trace-event JSON a profiler UI can load.
func TestTraceLocalExecute(t *testing.T) {
	srv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()

	var out strings.Builder
	rep, err := c.Execute(ctx, "sort | uniq -c", client.ExecuteOptions{Trace: "on"},
		strings.NewReader("b\na\nb\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || rep.Trace.Spans == 0 {
		t.Fatalf("local traced execute returned no summary: %+v", rep.Trace)
	}

	td, err := c.TraceData(ctx, rep.Trace.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range td.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"execute", "plan", "run", "pipeline", "stage", "synth"} {
		if !names[want] {
			t.Errorf("local trace missing %q span", want)
		}
	}

	// Default format is the Chrome trace-event file.
	resp, err := http.Get(ts.URL + "/v1/traces/" + rep.Trace.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export status %d: %s", resp.StatusCode, body)
	}
	var chrome obs.ChromeFile
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome export is not trace-event JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}

// TestTraceOffByDefault: without ?trace=on the execute report carries no
// trace summary and no spans are recorded for the request.
func TestTraceOffByDefault(t *testing.T) {
	_, c := newTestServer(t, server.Config{SynthOptions: kumquat.Options{Seed: 1}})
	var out strings.Builder
	rep, err := c.Execute(context.Background(), "sort", client.ExecuteOptions{},
		strings.NewReader("b\na\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Fatalf("untraced execute grew a trace summary: %+v", rep.Trace)
	}
}

// TestTraceEndpointErrors pins the error surface: malformed ids are 400,
// unknown ids are 404, a disabled ring is 404, and a bad trace parameter
// is rejected before execution.
func TestTraceEndpointErrors(t *testing.T) {
	srv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/traces/nothex"); code != http.StatusBadRequest {
		t.Errorf("malformed id status = %d, want 400", code)
	}
	if code := get("/v1/traces/00000000000000000000000000000001"); code != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", code)
	}

	// trace= only accepts on/off.
	c := client.New(ts.URL)
	var out strings.Builder
	if _, err := c.Execute(context.Background(), "sort", client.ExecuteOptions{Trace: "loud"},
		strings.NewReader("a\n"), &out); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Errorf("trace=loud error = %v, want a trace validation error", err)
	}

	// A negative buffer disables the ring entirely: traced executes still
	// succeed (tracing is best-effort) but record nothing.
	dsrv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}, TraceBuffer: -1})
	dts := httptest.NewServer(dsrv.Handler())
	t.Cleanup(dts.Close)
	dc := client.New(dts.URL)
	out.Reset()
	rep, err := dc.Execute(context.Background(), "sort", client.ExecuteOptions{Trace: "on"},
		strings.NewReader("b\na\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Fatalf("disabled ring still produced a trace summary: %+v", rep.Trace)
	}
	resp, err := http.Get(dts.URL + "/v1/traces/00000000000000000000000000000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled ring trace fetch status = %d, want 404", resp.StatusCode)
	}
}

// TestTraceRingEviction: the coordinator's ring holds TraceBuffer traces;
// older ones evict in arrival order and answer 404 afterward.
func TestTraceRingEviction(t *testing.T) {
	srv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}, TraceBuffer: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()

	run := func() string {
		t.Helper()
		var out strings.Builder
		rep, err := c.Execute(ctx, "sort", client.ExecuteOptions{Trace: "on"},
			strings.NewReader("b\na\n"), &out)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trace == nil {
			t.Fatal("traced execute returned no summary")
		}
		return rep.Trace.TraceID
	}
	first := run()
	second := run()
	if _, err := c.TraceData(ctx, first); err == nil {
		t.Error("evicted trace still served")
	}
	if _, err := c.TraceData(ctx, second); err != nil {
		t.Errorf("latest trace not served: %v", err)
	}
}

// TestTraceRootEndsOnEarlyFailure: a traced execute that fails before
// streaming — the script does not parse, or the `cat FILE` body runs past
// MaxBodyBytes — must still finish its root span. The trace the request
// log names holds an ended `execute` root carrying the error, and no
// recorded child is left pointing at a parent that never finished.
func TestTraceRootEndsOnEarlyFailure(t *testing.T) {
	for _, tc := range []struct {
		name, script, body string
		maxBody            int64
		want               int
	}{
		{name: "script does not parse", script: "sort >", body: "b\na\n", want: http.StatusBadRequest},
		{name: "file body over the limit", script: "cat in.txt | sort", body: strings.Repeat("x\n", 64),
			maxBody: 16, want: http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			h := server.New(server.Config{
				SynthOptions: kumquat.Options{Seed: 1},
				MaxBodyBytes: tc.maxBody,
				Logger:       slog.New(slog.NewJSONHandler(&logs, nil)),
			}).Handler()

			// Served in-process, so the request log is complete on return.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
				"/v1/execute?trace=on&script="+url.QueryEscape(tc.script), strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
			var entry struct {
				TraceID string `json:"trace_id"`
			}
			for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
				json.Unmarshal([]byte(line), &entry) //nolint:errcheck // only the finish line carries trace_id
			}
			if entry.TraceID == "" {
				t.Fatalf("request log names no trace_id:\n%s", logs.String())
			}

			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+entry.TraceID+"?format=raw", nil))
			var td obs.TraceData
			if err := json.Unmarshal(rec.Body.Bytes(), &td); err != nil {
				t.Fatalf("trace fetch (status %d): %v", rec.Code, err)
			}
			ids := map[string]bool{}
			var root *obs.SpanRecord
			for i, sp := range td.Spans {
				ids[sp.SpanID] = true
				if sp.Name == "execute" && sp.ParentID == "" {
					root = &td.Spans[i]
				}
			}
			if root == nil {
				t.Fatalf("failed execute left no finished root span: %+v", td.Spans)
			}
			hasErr := false
			for _, a := range root.Attrs {
				hasErr = hasErr || (a.Key == "error" && a.Value != "")
			}
			if !hasErr {
				t.Errorf("root span carries no error attribute: %+v", root.Attrs)
			}
			for _, sp := range td.Spans {
				if sp.ParentID != "" && !ids[sp.ParentID] {
					t.Errorf("span %q orphaned: parent %s never finished", sp.Name, sp.ParentID)
				}
			}
		})
	}
}
