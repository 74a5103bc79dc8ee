package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kumquat/internal/server/api"
	"kumquat/internal/server/client"
)

// flaky returns a handler that deals the scripted responses in order,
// then serves the final one forever, counting attempts.
func flaky(t *testing.T, attempts *atomic.Int64, script ...func(w http.ResponseWriter, r *http.Request)) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(attempts.Add(1)) - 1
		if n >= len(script) {
			n = len(script) - 1
		}
		script[n](w, r)
	})
}

func shed(retryAfter string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "at capacity"}) //nolint:errcheck
	}
}

func okSynth(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(api.SynthesizeResponse{Spec: "sort", Combiner: "concat"}) //nolint:errcheck
}

// TestWithRetrySurvivesFlakyServer: two 429s then a 200 — the retrying
// client succeeds and the caller never sees ErrBusy.
func TestWithRetrySurvivesFlakyServer(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(flaky(t, &attempts, shed("0"), shed("0"), okSynth))
	defer hs.Close()

	c := client.New(hs.URL, client.WithRetry(3, time.Millisecond, 5*time.Millisecond))
	resp, err := c.Synthesize(context.Background(), "sort")
	if err != nil {
		t.Fatalf("flaky server defeated the retry policy: %v", err)
	}
	if resp.Combiner != "concat" {
		t.Fatalf("wrong payload after retries: %+v", resp)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestErrBusyOnlyAfterExhaustion: a server that never stops shedding
// exhausts the policy; the surfaced error still unwraps to ErrBusy and
// the attempt count is Max+1.
func TestErrBusyOnlyAfterExhaustion(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(flaky(t, &attempts, shed("0")))
	defer hs.Close()

	c := client.New(hs.URL, client.WithRetry(2, time.Millisecond, 2*time.Millisecond))
	_, err := c.Synthesize(context.Background(), "sort")
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("exhausted retries surfaced %v, want ErrBusy", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want Max+1 = 3", got)
	}
}

// TestNoRetryWithoutPolicy: the default client surfaces the first 429
// without a second attempt — retrying is strictly opt-in.
func TestNoRetryWithoutPolicy(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(flaky(t, &attempts, shed("0"), okSynth))
	defer hs.Close()

	_, err := client.New(hs.URL).Synthesize(context.Background(), "sort")
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("got %v, want immediate ErrBusy", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("no-policy client made %d attempts, want 1", got)
	}
}

// TestBackoffHonorsRetryAfter: the Retry-After header of a shed request
// travels in the surfaced error, and a hint far above the jitter ceiling
// floors the delay the retry loop would sleep.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(flaky(t, &attempts, shed("7")))
	defer hs.Close()

	_, err := client.New(hs.URL).Synthesize(context.Background(), "sort")
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("got %v, want ErrBusy", err)
	}
	if d := client.Backoff(time.Millisecond, 5*time.Millisecond, 0, err); d < 7*time.Second {
		t.Fatalf("delay = %v, want ≥ 7s Retry-After floor", d)
	}
}

// TestExecuteRetryRewindsStdin: Execute's first attempt is shed before
// any output; the retry rewinds the seekable stdin so the server sees the
// full body again.
func TestExecuteRetryRewindsStdin(t *testing.T) {
	var attempts atomic.Int64
	const input = "b\na\nc\n"
	hs := httptest.NewServer(flaky(t, &attempts,
		func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck // partially consume, then shed
			shed("0")(w, r)
		},
		func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			if string(body) != input {
				t.Errorf("retried attempt saw stdin %q, want %q", body, input)
			}
			w.Header().Set("Trailer", api.ReportTrailer)
			io.WriteString(w, "a\nb\nc\n") //nolint:errcheck
			w.Header().Set(api.ReportTrailer, `{"mode":"serial"}`)
		}))
	defer hs.Close()

	c := client.New(hs.URL, client.WithRetry(2, time.Millisecond, 2*time.Millisecond))
	var out strings.Builder
	rep, err := c.Execute(context.Background(), "sort", client.ExecuteOptions{},
		strings.NewReader(input), &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "a\nb\nc\n" {
		t.Fatalf("output = %q", out.String())
	}
	if rep.Mode != "serial" {
		t.Fatalf("report = %+v", rep)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

// TestExecuteNoRetryAfterFirstByte: once output bytes have streamed to
// the caller's sink, a mid-body connection loss must surface — a blind
// retry would duplicate output.
func TestExecuteNoRetryAfterFirstByte(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(flaky(t, &attempts, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", api.ReportTrailer)
		io.WriteString(w, "partial out") //nolint:errcheck
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // sever the connection mid-stream
	}))
	defer hs.Close()

	c := client.New(hs.URL, client.WithRetry(3, time.Millisecond, 2*time.Millisecond))
	var out strings.Builder
	_, err := c.Execute(context.Background(), "sort", client.ExecuteOptions{},
		strings.NewReader("x\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "streaming output") {
		t.Fatalf("mid-stream loss surfaced as %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client retried after streaming bytes: %d attempts", got)
	}
	if out.String() != "partial out" {
		t.Fatalf("sink saw %q", out.String())
	}
}

// TestExecuteRetriesLostTrailerBeforeBytes: a response whose body is
// empty and whose report trailer was dropped (proxy ate it) is retried —
// nothing reached the sink, so the attempt is safely repeatable.
func TestExecuteRetriesLostTrailerBeforeBytes(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(flaky(t, &attempts,
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK) // no body, no trailer: lost report
		},
		func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Trailer", api.ReportTrailer)
			w.WriteHeader(http.StatusOK)
			w.Header().Set(api.ReportTrailer, `{"mode":"serial"}`)
		}))
	defer hs.Close()

	c := client.New(hs.URL, client.WithRetry(2, time.Millisecond, 2*time.Millisecond))
	var out strings.Builder
	rep, err := c.Execute(context.Background(), "true", client.ExecuteOptions{},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("lost trailer with empty body must be retried: %v", err)
	}
	if rep.Mode != "serial" {
		t.Fatalf("report after retry = %+v", rep)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

// TestExecuteLostTrailerAfterBytesFails: the trailer is gone but output
// already streamed — the client must fail loudly rather than retry or
// fabricate a report.
func TestExecuteLostTrailerAfterBytesFails(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(flaky(t, &attempts, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "streamed output\n") //nolint:errcheck // no trailer follows
	}))
	defer hs.Close()

	c := client.New(hs.URL, client.WithRetry(3, time.Millisecond, 2*time.Millisecond))
	var out strings.Builder
	_, err := c.Execute(context.Background(), "sort", client.ExecuteOptions{},
		strings.NewReader("x\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "no run report trailer") {
		t.Fatalf("lost trailer after bytes surfaced as %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client retried after streaming bytes: %d attempts", got)
	}
}

// TestRetryTransportError: a connection-refused transport failure on an
// idempotent JSON endpoint is retried against the (now listening) server.
func TestRetryTransportError(t *testing.T) {
	// A just-closed listener yields a deterministic connection-refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.URL
	dead.Close()

	var attempts countingTransport
	c := client.New(addr,
		client.WithHTTPClient(&http.Client{Transport: &attempts}),
		client.WithRetry(2, time.Millisecond, 2*time.Millisecond))
	_, err := c.Synthesize(context.Background(), "sort")
	if err == nil {
		t.Fatal("dead server answered")
	}
	if errors.Is(err, client.ErrBusy) {
		t.Fatalf("transport error mapped to ErrBusy: %v", err)
	}
	if got := attempts.n.Load(); got != 3 {
		t.Fatalf("transport error made %d attempts, want Max+1 = 3", got)
	}
}

// countingTransport counts the requests a client hands to the network.
type countingTransport struct{ n atomic.Int64 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestExecuteTruncatedBodyMidStream: the connection dies after a partial
// chunk — the client reports a streaming error carrying the transport
// cause, and whatever bytes arrived stay in the sink (the caller decides
// what to do with a torn stream).
func TestExecuteTruncatedBodyMidStream(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", api.ReportTrailer)
		fmt.Fprint(w, strings.Repeat("x", 1024)) //nolint:errcheck
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}))
	defer hs.Close()

	var out strings.Builder
	_, err := client.New(hs.URL).Execute(context.Background(), "sort",
		client.ExecuteOptions{}, strings.NewReader("x\n"), &out)
	if err == nil {
		t.Fatal("truncated stream decoded cleanly")
	}
	if !strings.Contains(err.Error(), "streaming output") {
		t.Fatalf("truncation surfaced as %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("partial bytes discarded instead of delivered")
	}
}

// TestBackoffSaturatesAtCap: the exponential ceiling must saturate at the
// cap, not overflow. Deep into a long retry chain Base<<try no longer fits
// a Duration (and a shift ≥ 64 is zero), which used to collapse the
// ceiling to a non-positive value and retry with no delay at all.
func TestBackoffSaturatesAtCap(t *testing.T) {
	const base, limit = 50 * time.Millisecond, time.Second
	for _, try := range []int{0, 5, 40, 64, 70, 1000} {
		var most time.Duration
		for i := 0; i < 64; i++ {
			d := client.Backoff(base, limit, try, nil)
			if d < 0 || d > limit {
				t.Fatalf("try %d: delay %v outside [0, %v]", try, d, limit)
			}
			most = max(most, d)
		}
		if most == 0 {
			t.Errorf("try %d: 64 draws all chose a zero delay", try)
		}
		if try == 0 && most > base {
			t.Errorf("try 0: delay %v above the first ceiling %v", most, base)
		}
	}
	// Uncapped growth saturates too instead of wrapping negative.
	if d := client.Backoff(time.Hour, 0, 62, nil); d < 0 {
		t.Errorf("uncapped overflow chose %v", d)
	}
	// The Retry-After floor applies on top of the jitter.
	if d := client.Backoff(base, limit, 3, &client.BusyError{RetryAfter: 7 * time.Second}); d != 7*time.Second {
		t.Errorf("Retry-After floor: delay %v, want 7s", d)
	}
}
