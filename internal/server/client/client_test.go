package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kumquat"
	"kumquat/internal/server"
	"kumquat/internal/server/api"
	"kumquat/internal/server/client"
)

// realServer boots a full kumquatd handler on an httptest server; the
// round-trip tests run against the genuine service plane, not a stub.
func realServer(t *testing.T) *client.Client {
	t.Helper()
	srv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return client.New(hs.URL, client.WithHTTPClient(hs.Client()))
}

// TestSynthesizeRoundTrip: a cold synthesize over HTTP returns the
// combiner verdict, and the warm repeat is attributed to the memory tier.
func TestSynthesizeRoundTrip(t *testing.T) {
	c := realServer(t)
	ctx := context.Background()
	cold, err := c.Synthesize(ctx, "wc -l")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Combiner == "" || cold.Space.Total == 0 {
		t.Fatalf("cold synthesize verdict incomplete: %+v", cold)
	}
	if cold.Cached {
		t.Fatalf("first request reported cached (tier %s)", cold.CacheTier)
	}
	warm, err := c.Synthesize(ctx, "wc -l")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.CacheTier != "memory" {
		t.Fatalf("warm request not a memory hit: %+v", warm)
	}
	if warm.Combiner != cold.Combiner {
		t.Fatalf("warm combiner %q != cold %q", warm.Combiner, cold.Combiner)
	}
}

// TestExecuteRoundTrip: a streamed execute through the daemon matches
// the in-process library byte-for-byte and decodes the report trailer.
func TestExecuteRoundTrip(t *testing.T) {
	c := realServer(t)
	input := strings.Repeat("pear\napple\npear\n", 40)
	script := "sort | uniq -c | sort -rn"

	var got strings.Builder
	rep, err := c.Execute(context.Background(), script,
		client.ExecuteOptions{Mode: "optimized", K: 4}, strings.NewReader(input), &got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != kumquat.Optimized || rep.Parallelism != 4 {
		t.Fatalf("report config echo wrong: %+v", rep)
	}
	if len(rep.Stages) != 3 {
		t.Fatalf("report stages = %d, want 3", len(rep.Stages))
	}

	sys := kumquat.New(kumquat.NewEnv())
	plan, err := sys.Parallelize(context.Background(), script+"\n")
	if err != nil {
		t.Fatal(err)
	}
	local, err := plan.Execute(context.Background(),
		kumquat.WithParallelism(4), kumquat.WithStdin(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != local.Output {
		t.Fatalf("daemon output diverges from library:\n%q\nvs\n%q", got.String(), local.Output)
	}
	if rep.BytesOut != int64(len(local.Output)) {
		t.Fatalf("report bytes_out = %d, want %d", rep.BytesOut, len(local.Output))
	}
}

// TestParallelizeRoundTrip: planning over HTTP with request-scoped files
// reports the same stage verdicts the local planner produces.
func TestParallelizeRoundTrip(t *testing.T) {
	c := realServer(t)
	script := "cat data.txt | sort | uniq -c | sort -rn\n"
	resp, err := c.Parallelize(context.Background(), script,
		map[string]string{"data.txt": "b\na\nb\n"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total == 0 || resp.Parallelized == 0 || len(resp.Stages) != resp.Total {
		t.Fatalf("parallelize verdict incomplete: %+v", resp)
	}
}

// TestErrBusy: a 429 maps to ErrBusy on both the JSON and the streaming
// entry points.
func TestErrBusy(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"server at capacity"}`)) //nolint:errcheck
	}))
	defer hs.Close()
	c := client.New(hs.URL)

	if _, err := c.Synthesize(context.Background(), "wc -l"); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("synthesize on 429 = %v, want client.ErrBusy", err)
	}
	var out strings.Builder
	if _, err := c.Execute(context.Background(), "sort", client.ExecuteOptions{}, nil, &out); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("execute on 429 = %v, want client.ErrBusy", err)
	}
}

// trailerHandler streams a fixed body and sets the given trailers.
func trailerHandler(body string, trailers map[string]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		names := make([]string, 0, len(trailers))
		for name := range trailers {
			names = append(names, name)
		}
		w.Header().Set("Trailer", strings.Join(names, ", "))
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(body)) //nolint:errcheck
		for name, value := range trailers {
			w.Header().Set(name, value)
		}
	})
}

// TestExecuteTrailerReportParsing: the run report riding the response
// trailer is decoded after the full body has streamed.
func TestExecuteTrailerReportParsing(t *testing.T) {
	report := `{"mode":"pipelined","parallelism":8,"wall_ns":1500000,"bytes_in":6,"bytes_out":4,` +
		`"stages":[{"spec":"sort","parallel":true,"chunks":8,"wall_ns":900000,"combine_wall_ns":250000}],"synth_cache":{}}`
	hs := httptest.NewServer(trailerHandler("body\n", map[string]string{api.ReportTrailer: report}))
	defer hs.Close()

	var out strings.Builder
	rep, err := client.New(hs.URL).Execute(context.Background(), "sort", client.ExecuteOptions{}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "body\n" {
		t.Fatalf("streamed body = %q", out.String())
	}
	if rep.Mode != kumquat.Pipelined || rep.Parallelism != 8 || rep.Wall != 1500*time.Microsecond {
		t.Fatalf("decoded report wrong: %+v", rep)
	}
	if len(rep.Stages) != 1 || rep.Stages[0].Chunks != 8 || rep.Stages[0].CombineWall != 250*time.Microsecond {
		t.Fatalf("decoded stages wrong: %+v", rep.Stages)
	}
}

// TestExecuteErrorTrailer: a mid-stream failure travels as the error
// trailer and surfaces as an error even though the status was 200.
func TestExecuteErrorTrailer(t *testing.T) {
	hs := httptest.NewServer(trailerHandler("partial", map[string]string{
		api.ErrorTrailer: "stage exploded mid-stream",
	}))
	defer hs.Close()

	var out strings.Builder
	_, err := client.New(hs.URL).Execute(context.Background(), "sort", client.ExecuteOptions{}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "stage exploded mid-stream") {
		t.Fatalf("error trailer not surfaced: %v", err)
	}
}

// TestExecuteMissingReportTrailer: a 200 with no trailer at all is a
// protocol violation, not a silent success.
func TestExecuteMissingReportTrailer(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck
	}))
	defer hs.Close()
	var out strings.Builder
	_, err := client.New(hs.URL).Execute(context.Background(), "sort", client.ExecuteOptions{}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "no run report trailer") {
		t.Fatalf("missing trailer not detected: %v", err)
	}
}

// TestMalformedJSON: garbage replies surface as decode errors on every
// path — 200 bodies, trailer reports, and non-200 error bodies (which
// fall back to the HTTP status).
func TestMalformedJSON(t *testing.T) {
	t.Run("synthesize body", func(t *testing.T) {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("{not json")) //nolint:errcheck
		}))
		defer hs.Close()
		if _, err := client.New(hs.URL).Synthesize(context.Background(), "wc -l"); err == nil {
			t.Fatal("malformed synthesize body decoded without error")
		}
	})
	t.Run("report trailer", func(t *testing.T) {
		hs := httptest.NewServer(trailerHandler("x", map[string]string{api.ReportTrailer: "{broken"}))
		defer hs.Close()
		var out strings.Builder
		_, err := client.New(hs.URL).Execute(context.Background(), "sort", client.ExecuteOptions{}, nil, &out)
		if err == nil || !strings.Contains(err.Error(), "decoding run report") {
			t.Fatalf("malformed report trailer not detected: %v", err)
		}
	})
	t.Run("error body", func(t *testing.T) {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte("<html>oops</html>")) //nolint:errcheck
		}))
		defer hs.Close()
		_, err := client.New(hs.URL).Synthesize(context.Background(), "wc -l")
		if err == nil || !strings.Contains(err.Error(), "500") {
			t.Fatalf("malformed error body did not fall back to status: %v", err)
		}
	})
}

// TestVersionHealthzMetrics: the three observability endpoints round-trip
// through the typed client against the real handler.
func TestVersionHealthzMetrics(t *testing.T) {
	c := realServer(t)
	ctx := context.Background()
	ver, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver.MaxInFlight <= 0 || ver.QueueDepth < 0 {
		t.Fatalf("version limits missing: %+v", ver)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "kumquatd_") {
		t.Fatalf("metrics exposition unexpectedly empty: %q", metrics)
	}
}
