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

// Every client call is one attempt: whatever fails surfaces to the caller
// as it happened, and retrying is the caller's decision (the cluster
// coordinator's dispatch loop is the one that makes it).

// counting wraps a handler with an attempt counter.
func counting(attempts *atomic.Int64, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		h(w, r)
	})
}

// shed answers 429 with the given Retry-After hint.
func shed(retryAfter string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "at capacity"}) //nolint:errcheck
	}
}

// TestNoRetryWithoutPolicy: a shed request surfaces at once as a
// BusyError carrying the server's Retry-After hint — one request per
// call, on the JSON and the streaming entry points alike.
func TestNoRetryWithoutPolicy(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(counting(&attempts, shed("7")))
	defer hs.Close()
	c := client.New(hs.URL)

	_, err := c.Synthesize(context.Background(), "sort")
	var busy *client.BusyError
	if !errors.As(err, &busy) || !errors.Is(err, client.ErrBusy) {
		t.Fatalf("got %v, want a BusyError unwrapping to ErrBusy", err)
	}
	if busy.RetryAfter != 7*time.Second {
		t.Fatalf("Retry-After hint = %v, want 7s", busy.RetryAfter)
	}
	var out strings.Builder
	if _, err := c.Execute(context.Background(), "sort", client.ExecuteOptions{},
		strings.NewReader("b\na\n"), &out); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("execute got %v, want ErrBusy", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d requests for 2 calls", got)
	}
}

// TestExecuteNoRetryAfterFirstByte: a mid-body connection loss surfaces
// as a streaming error, and the bytes that arrived stay in the sink.
func TestExecuteNoRetryAfterFirstByte(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(counting(&attempts, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", api.ReportTrailer)
		io.WriteString(w, "partial out") //nolint:errcheck
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // sever the connection mid-stream
	}))
	defer hs.Close()

	var out strings.Builder
	_, err := client.New(hs.URL).Execute(context.Background(), "sort", client.ExecuteOptions{},
		strings.NewReader("x\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "streaming output") {
		t.Fatalf("mid-stream loss surfaced as %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client made %d attempts, want 1", got)
	}
	if out.String() != "partial out" {
		t.Fatalf("sink saw %q", out.String())
	}
}

// TestExecuteLostTrailerBeforeBytesFails: a 200 whose body is empty and
// whose report trailer was dropped (a proxy ate it) is an error, not an
// empty success — nothing proves the run finished.
func TestExecuteLostTrailerBeforeBytesFails(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(counting(&attempts, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK) // no body, no trailer: lost report
	}))
	defer hs.Close()

	var out strings.Builder
	_, err := client.New(hs.URL).Execute(context.Background(), "true", client.ExecuteOptions{},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "no run report trailer") {
		t.Fatalf("lost trailer before bytes surfaced as %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client made %d attempts, want 1", got)
	}
}

// TestExecuteLostTrailerAfterBytesFails: the trailer is gone but output
// already streamed — the client must fail loudly rather than fabricate a
// report.
func TestExecuteLostTrailerAfterBytesFails(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(counting(&attempts, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "streamed output\n") //nolint:errcheck // no trailer follows
	}))
	defer hs.Close()

	var out strings.Builder
	_, err := client.New(hs.URL).Execute(context.Background(), "sort", client.ExecuteOptions{},
		strings.NewReader("x\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "no run report trailer") {
		t.Fatalf("lost trailer after bytes surfaced as %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client made %d attempts, want 1", got)
	}
}

// TestTransportErrorSurfaces: a connection-refused transport failure is
// returned after one request and is not mistaken for load shedding.
func TestTransportErrorSurfaces(t *testing.T) {
	// A just-closed listener yields a deterministic connection-refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.URL
	dead.Close()

	var attempts countingTransport
	c := client.New(addr, client.WithHTTPClient(&http.Client{Transport: &attempts}))
	_, err := c.Synthesize(context.Background(), "sort")
	if err == nil {
		t.Fatal("dead server answered")
	}
	if errors.Is(err, client.ErrBusy) {
		t.Fatalf("transport error mapped to ErrBusy: %v", err)
	}
	if got := attempts.n.Load(); got != 1 {
		t.Fatalf("transport error made %d requests, want 1", got)
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
