package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"kumquat"
	"kumquat/internal/server"
	"kumquat/internal/server/client"
)

// newTestServer starts an in-process kumquatd over loopback and returns
// its typed client.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL)
}

// TestSynthesizeCacheWarmth is the acceptance-criteria core: two
// sequential synthesize calls for the same spec must report a miss then
// a memory hit, with identical verdicts — proof the engine outlives the
// request.
func TestSynthesizeCacheWarmth(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	cold, err := c.Synthesize(ctx, "wc -l")
	if err != nil {
		t.Fatalf("cold synthesize: %v", err)
	}
	if cold.Cached || cold.CacheTier != "miss" {
		t.Errorf("cold call reported cached=%v tier=%q, want a miss", cold.Cached, cold.CacheTier)
	}
	if cold.Combiner == "" {
		t.Errorf("wc -l synthesized no combiner: %+v", cold)
	}

	warm, err := c.Synthesize(ctx, "wc -l")
	if err != nil {
		t.Fatalf("warm synthesize: %v", err)
	}
	if !warm.Cached || warm.CacheTier != "memory" {
		t.Errorf("warm call reported cached=%v tier=%q, want a memory hit", warm.Cached, warm.CacheTier)
	}
	if warm.Combiner != cold.Combiner {
		t.Errorf("warm combiner %q != cold combiner %q", warm.Combiner, cold.Combiner)
	}
	if warm.Cache.Hits < 1 || warm.Cache.Misses < 1 {
		t.Errorf("cumulative stats missing the hit/miss pair: %+v", warm.Cache)
	}
}

// TestSynthesizeVerdicts covers the non-combiner outcomes: unsupported
// commands are verdicts (200), unparsable specs are caller errors.
func TestSynthesizeVerdicts(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	resp, err := c.Synthesize(ctx, "ls")
	if err != nil {
		t.Fatalf("synthesize ls: %v", err)
	}
	if resp.Unsupported == "" || resp.Combiner != "" {
		t.Errorf("ls should be an unsupported verdict, got %+v", resp)
	}

	if _, err := c.Synthesize(ctx, "frobnicate -z"); err == nil {
		t.Error("unparsable spec should be an error")
	}
	if _, err := c.Synthesize(ctx, "   "); err == nil {
		t.Error("blank spec should be an error")
	}
}

// TestParallelize checks the plan summary for the §2 quickstart
// pipeline, including per-stage verdicts and the compile cache window.
func TestParallelize(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	resp, err := c.Parallelize(context.Background(),
		"cat data.txt | sort | uniq -c | sort -rn",
		map[string]string{"data.txt": "pear\napple\npear\n"})
	if err != nil {
		t.Fatalf("parallelize: %v", err)
	}
	if resp.Total != 3 {
		t.Errorf("total stages = %d, want 3 (cat source is not a stage)", resp.Total)
	}
	if resp.Parallelized == 0 {
		t.Errorf("no stages parallelized: %+v", resp)
	}
	if got := len(resp.Stages); got != 3 {
		t.Fatalf("len(stages) = %d, want 3", got)
	}
	if resp.Stages[0].Spec != "sort" || !resp.Stages[0].Parallel {
		t.Errorf("stage 0 = %+v, want parallel sort", resp.Stages[0])
	}
	if resp.SynthCache.Lookups() == 0 {
		t.Errorf("compile window recorded no cache activity: %+v", resp.SynthCache)
	}

	// The same script again: every stage now resolves from the shared
	// engine's cache.
	again, err := c.Parallelize(context.Background(), "cat data.txt | sort | uniq -c | sort -rn", nil)
	if err != nil {
		t.Fatalf("parallelize (warm): %v", err)
	}
	if again.SynthCache.Misses != 0 || again.SynthCache.Hits == 0 {
		t.Errorf("warm compile should be all hits, got %+v", again.SynthCache)
	}
}

// TestExecuteStdinStreaming drives the execute endpoint with the body
// bound to standard input and checks the streamed output plus the run
// report trailer.
func TestExecuteStdinStreaming(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	var out strings.Builder
	rep, err := c.Execute(context.Background(), "sort",
		client.ExecuteOptions{K: 4, Mode: "optimized"},
		strings.NewReader("pear\napple\nquince\n"), &out)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got, want := out.String(), "apple\npear\nquince\n"; got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
	if rep.Mode != kumquat.Optimized || rep.Parallelism != 4 {
		t.Errorf("report config = %s/k=%d, want optimized/k=4", rep.Mode, rep.Parallelism)
	}
	if rep.BytesOut != int64(out.Len()) {
		t.Errorf("report bytes_out = %d, want %d", rep.BytesOut, out.Len())
	}
	if len(rep.Stages) == 0 {
		t.Error("report carries no stages")
	}
}

// TestExecuteFileBinding checks the other input binding: a `cat FILE`
// source receives the request body.
func TestExecuteFileBinding(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	var out strings.Builder
	_, err := c.Execute(context.Background(), "cat book.txt | sort | uniq -c",
		client.ExecuteOptions{K: 2},
		strings.NewReader("b\na\nb\n"), &out)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !strings.Contains(out.String(), "2 b") || !strings.Contains(out.String(), "1 a") {
		t.Errorf("unexpected uniq -c output %q", out.String())
	}
}

// TestExecuteFileBindingShadowsCorpus pins the binding rule: the body
// binds to the script's file source even when that name collides with
// the environment's synthetic corpus (f000.txt… ship in every Env) —
// a client must never silently compute over corpus data.
func TestExecuteFileBindingShadowsCorpus(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	var out strings.Builder
	_, err := c.Execute(context.Background(), "cat f001.txt | sort",
		client.ExecuteOptions{K: 2},
		strings.NewReader("b\na\n"), &out)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got, want := out.String(), "a\nb\n"; got != want {
		t.Errorf("output = %q, want %q (corpus file shadowed the request body?)", got, want)
	}
}

// TestExecuteBadScript checks that malformed scripts fail fast with a
// JSON 400, before any streaming starts.
func TestExecuteBadScript(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	var out strings.Builder
	_, err := c.Execute(context.Background(), "sort >", client.ExecuteOptions{}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "redirect without target") {
		t.Errorf("want redirect-without-target error, got %v", err)
	}
}

// TestBodyLimit pins Config.MaxBodyBytes: a JSON body or a file-bound
// execute body past the limit answers 413 (not a generic 400), and a
// request inside the limit is still served.
func TestBodyLimit(t *testing.T) {
	srv := server.New(server.Config{MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	execute := ts.URL + "/v1/execute?" + url.Values{"script": {"cat book.txt | sort"}}.Encode()
	for _, tc := range []struct {
		name, url, ctype, body string
		want                   int
	}{
		{"oversize JSON", ts.URL + "/v1/synthesize", "application/json",
			`{"spec": "` + strings.Repeat(" ", 64) + `sort"}`, http.StatusRequestEntityTooLarge},
		{"oversize file-bound body", execute, "text/plain",
			strings.Repeat("line\n", 20), http.StatusRequestEntityTooLarge},
		{"in-limit JSON", ts.URL + "/v1/synthesize", "application/json",
			`{"spec": "sort"}`, http.StatusOK},
		{"in-limit file-bound body", execute, "text/plain", "b\na\n", http.StatusOK},
	} {
		resp, err := http.Post(tc.url, tc.ctype, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestAdmissionOverflow saturates a MaxInFlight=1, QueueDepth=0 server
// with an execute request whose stdin stays open, then checks the next
// request is shed with 429 / ErrBusy.
func TestAdmissionOverflow(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxInFlight: 1, QueueDepth: -1})
	ctx := context.Background()

	// Warm the sort combiner first so the blocked request holds the
	// slot in execution, not synthesis.
	if _, err := c.Synthesize(ctx, "sort"); err != nil {
		t.Fatalf("warm-up synthesize: %v", err)
	}

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		_, err := c.Execute(ctx, "sort", client.ExecuteOptions{}, pr, &out)
		done <- err
	}()

	// Wait until the blocked request holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if strings.Contains(m, "kumquatd_in_flight 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("execute request never acquired the slot")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := c.Synthesize(ctx, "sort"); !errors.Is(err, client.ErrBusy) {
		t.Errorf("saturated server: want ErrBusy, got %v", err)
	}

	pw.Close() // release the blocked execute
	if err := <-done; err != nil {
		t.Fatalf("blocked execute failed after release: %v", err)
	}

	// The slot is free again: the same request is now served.
	if _, err := c.Synthesize(ctx, "sort"); err != nil {
		t.Errorf("post-release synthesize: %v", err)
	}
}

// TestConcurrentClients drives all three endpoints from many goroutines
// against one server — the multi-user pattern the daemon exists for.
// Run under -race (CI does) it doubles as the engine's service-plane
// race check; the cache-consistency assertion at the end proves the
// concurrent requests shared one engine.
func TestConcurrentClients(t *testing.T) {
	srv, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	const goroutines = 6
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := c.Synthesize(ctx, "wc -l"); err != nil {
						errs <- err
					}
				case 1:
					if _, err := c.Parallelize(ctx, "cat d.txt | sort | uniq -c",
						map[string]string{"d.txt": "x\ny\nx\n"}); err != nil {
						errs <- err
					}
				default:
					var out strings.Builder
					if _, err := c.Execute(ctx, "sort", client.ExecuteOptions{K: 2},
						strings.NewReader("c\na\nb\n"), &out); err != nil {
						errs <- err
					} else if out.String() != "a\nb\nc\n" {
						errs <- errors.New("execute output corrupted: " + out.String())
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent request failed: %v", err)
	}

	// All requests shared one engine, and single-flight coalescing means
	// each distinct spec (wc -l, sort, uniq -c) cold-synthesized at most
	// once — even when concurrent requests raced on a cold cache.
	st := srv.System().SynthCacheStats()
	if st.Misses > 3 || st.Hits == 0 {
		t.Errorf("cache did not stay warm across concurrent requests: %+v", st)
	}
}

// TestSynthesizeColdCoalescing fires many concurrent synthesize calls
// for one cold spec and checks the engine ran a single synthesis.
func TestSynthesizeColdCoalescing(t *testing.T) {
	srv, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	const clients = 8
	var wg sync.WaitGroup
	combiners := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Synthesize(ctx, "uniq -c")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			combiners[i] = resp.Combiner
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if combiners[i] != combiners[0] {
			t.Errorf("client %d got combiner %q, client 0 got %q", i, combiners[i], combiners[0])
		}
	}
	if st := srv.System().SynthCacheStats(); st.Misses != 1 || st.Hits != clients-1 {
		t.Errorf("coalescing failed: want 1 miss / %d hits, got %+v", clients-1, st)
	}
}

// TestVersionHealthzMetrics covers the observability surface.
func TestVersionHealthzMetrics(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxInFlight: 3, QueueDepth: 7})
	ctx := context.Background()

	v, err := c.Version(ctx)
	if err != nil {
		t.Fatalf("version: %v", err)
	}
	if v.Module != "kumquat" || v.GOMAXPROCS < 1 || v.DefaultSynthWorkers < 1 {
		t.Errorf("implausible build info: %+v", v)
	}
	if v.MaxInFlight != 3 || v.QueueDepth != 7 {
		t.Errorf("service limits = %d/%d, want 3/7", v.MaxInFlight, v.QueueDepth)
	}

	if err := c.Healthz(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}

	if _, err := c.Synthesize(ctx, "wc -l"); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`kumquatd_requests_total{endpoint="synthesize",code="200"} 1`,
		`kumquatd_request_seconds_bucket{endpoint="synthesize",le="+Inf"} 1`,
		`kumquatd_synth_cache_misses 1`,
		"kumquatd_in_flight 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, m)
		}
	}
}
