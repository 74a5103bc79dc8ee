// Package client is the typed Go client for kumquatd's HTTP API. It
// shares the server's wire types (internal/server/api), streams execute
// input/output, and decodes the RunReport trailer, so callers get the
// same surface the in-process library offers — over a socket.
//
// The client is also the cluster plane's transport: with WithRetry it
// absorbs transient failures (429 load shedding, connection errors, bad
// gateways) behind exponential backoff with full jitter, honoring
// Retry-After, so coordinators and CLI callers only see errors that
// survived the policy.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"kumquat/internal/obs"
	"kumquat/internal/server/api"
)

// ErrBusy is returned when the server sheds load (HTTP 429) and the
// retry policy (if any) is exhausted: the caller should back off and
// retry.
var ErrBusy = errors.New("client: server at capacity")

// BusyError is the concrete 429 error: it unwraps to ErrBusy and carries
// the server's Retry-After hint so callers layering their own retry
// policy (the cluster coordinator) can honor it.
type BusyError struct {
	// RetryAfter is the server's Retry-After hint (zero when absent).
	RetryAfter time.Duration
	// Msg is the server's error body.
	Msg string
}

// Error renders the busy verdict with the server's message.
func (e *BusyError) Error() string { return fmt.Sprintf("%v: %s", ErrBusy, e.Msg) }

// Unwrap makes errors.Is(err, ErrBusy) hold for BusyError values.
func (e *BusyError) Unwrap() error { return ErrBusy }

// RetryPolicy tunes the client's transparent retries: up to Max retries
// (Max+1 attempts total) with exponential backoff and full jitter —
// each delay is uniform in [0, min(Cap, Base·2^attempt)], floored at the
// server's Retry-After hint on 429s.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying.
	Max int
	// Base is the first backoff ceiling; Cap bounds the exponential
	// growth.
	Base, Cap time.Duration
}

// Client talks to one kumquatd instance.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry enables transparent retries on transient failures: HTTP 429
// (honoring Retry-After), 502/503/504, and transport errors (connection
// refused or reset, unexpected EOF before the response status). Requests
// are only retried when they are safely repeatable — the JSON endpoints
// always are (their bodies are rebuilt per attempt; the API is
// idempotent by construction), and Execute retries only while no output
// byte has been streamed and its stdin can be rewound. ErrBusy surfaces
// only after the retries are exhausted.
func WithRetry(max int, base, cap time.Duration) Option {
	return func(c *Client) { c.retry = RetryPolicy{Max: max, Base: base, Cap: cap} }
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:9917").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Synthesize asks the server for one command's combiner verdict.
func (c *Client) Synthesize(ctx context.Context, spec string) (*api.SynthesizeResponse, error) {
	var resp api.SynthesizeResponse
	if err := c.postJSON(ctx, "/v1/synthesize", api.SynthesizeRequest{Spec: spec}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Parallelize asks the server to plan a script (with optional input
// files registered into the request's private environment).
func (c *Client) Parallelize(ctx context.Context, script string, files map[string]string) (*api.ParallelizeResponse, error) {
	var resp api.ParallelizeResponse
	req := api.ParallelizeRequest{Script: script, Files: files}
	if err := c.postJSON(ctx, "/v1/parallelize", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ExecuteOptions tunes one Execute call; the zero value uses the
// server's defaults.
type ExecuteOptions struct {
	// Mode is the execution configuration name ("optimized",
	// "unoptimized", "serial", "pipelined"); "" = server default.
	Mode string
	// K is the data-parallelism degree; 0 = server default.
	K int
	// CombineWorkers bounds the combine plane; 0 = server default.
	CombineWorkers int
	// Fuse selects the program optimized mode walks: "" = server default
	// (on), "on" the rewritten dataflow program, "off" the
	// Theorem-5-only ablation.
	Fuse string
	// Cluster selects coordinator dispatch on a cluster-configured
	// server: "" = server default (on when workers are configured),
	// "off" forces local execution, "on" requires cluster mode.
	Cluster string
	// Trace asks the server to record a trace of the request ("on");
	// "" = off. The report's Trace summary then carries the trace id to
	// fetch via TraceData.
	Trace string
}

// Execute runs a script on the server: stdin streams up as the request
// body (the server binds it to the script's input source), the output
// stream is copied to out as it arrives, and the run report decoded
// from the response trailer is returned. A nil stdin sends no input.
//
// With a retry policy, attempts that fail before the first output byte
// (connection errors, 429/5xx statuses) are retried when stdin is nil or
// an io.Seeker (it is rewound per attempt); a failure after streaming
// began is returned as-is — the caller owns mid-stream recovery.
func (c *Client) Execute(ctx context.Context, script string, opts ExecuteOptions, stdin io.Reader, out io.Writer) (*api.ExecuteReport, error) {
	q := url.Values{"script": {script}}
	if opts.Mode != "" {
		q.Set("mode", opts.Mode)
	}
	if opts.K > 0 {
		q.Set("k", strconv.Itoa(opts.K))
	}
	if opts.CombineWorkers > 0 {
		q.Set("combine-workers", strconv.Itoa(opts.CombineWorkers))
	}
	if opts.Fuse != "" {
		q.Set("fuse", opts.Fuse)
	}
	if opts.Cluster != "" {
		q.Set("cluster", opts.Cluster)
	}
	if opts.Trace != "" {
		q.Set("trace", opts.Trace)
	}
	target := c.base + "/v1/execute?" + q.Encode()

	seeker, _ := stdin.(io.Seeker)
	rewindable := stdin == nil || seeker != nil
	cw := &countingWriter{w: out}
	var report *api.ExecuteReport
	err := c.attempt(ctx, func() (retryable bool, err error) {
		if cw.n > 0 {
			// Output already streamed: a retry would duplicate bytes.
			return false, errors.New("client: internal: attempt after partial stream")
		}
		if seeker != nil {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return false, fmt.Errorf("client: rewinding stdin for retry: %w", err)
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, stdin)
		if err != nil {
			return false, err
		}
		// Propagate trace context: a span in ctx (a coordinator's shard
		// dispatch) rides the W3C traceparent header, and the worker's
		// spans come back in the trace trailer for stitching.
		sp := obs.FromContext(ctx)
		if sp != nil {
			req.Header.Set("traceparent", sp.SpanContext().Traceparent())
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return rewindable, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return rewindable && retryableStatus(resp.StatusCode), decodeError(resp)
		}
		if _, err := io.Copy(cw, resp.Body); err != nil {
			// The stream broke mid-body; bytes may have reached out, so
			// never retry transparently.
			return false, fmt.Errorf("client: streaming output: %w", err)
		}
		// Trailers are populated only after the body has been fully read.
		if sp != nil {
			if raw := resp.Trailer.Get(api.TraceTrailer); raw != "" {
				var recs []obs.SpanRecord
				if json.Unmarshal([]byte(raw), &recs) == nil {
					sp.Tracer().Merge(recs)
				}
			}
		}
		if msg := resp.Trailer.Get(api.ErrorTrailer); msg != "" {
			return false, fmt.Errorf("client: execute failed: %s", msg)
		}
		raw := resp.Trailer.Get(api.ReportTrailer)
		if raw == "" {
			// The trailer was lost (proxy dropped it, connection closed at
			// the chunk boundary). The output cannot be trusted complete;
			// retry only while nothing was streamed to the caller.
			return rewindable && cw.n == 0, errors.New("client: response carried no run report trailer")
		}
		var rep api.ExecuteReport
		if err := json.Unmarshal([]byte(raw), &rep); err != nil {
			return false, fmt.Errorf("client: decoding run report: %w", err)
		}
		report = &rep
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// countingWriter tracks whether any output byte reached the caller's
// sink, the point past which Execute must not retry.
type countingWriter struct {
	w io.Writer
	n int64
}

// Write forwards to the wrapped sink and counts.
func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// TraceData fetches one recorded trace from the server's ring by id (32
// hex digits, as carried in the execute report's Trace summary). The
// server serves traces until the ring evicts them.
func (c *Client) TraceData(ctx context.Context, id string) (*obs.TraceData, error) {
	var td obs.TraceData
	if err := c.getJSON(ctx, "/v1/traces/"+url.PathEscape(id)+"?format=raw", &td); err != nil {
		return nil, err
	}
	return &td, nil
}

// Version fetches the server's build info and service limits.
func (c *Client) Version(ctx context.Context) (*api.VersionResponse, error) {
	var resp api.VersionResponse
	if err := c.getJSON(ctx, "/v1/version", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz probes liveness: a draining server is still alive, so this
// stays 200 until the process exits.
func (c *Client) Healthz(ctx context.Context) error {
	return c.probe(ctx, "/healthz")
}

// Readyz probes readiness: a draining (or otherwise not-admitting)
// server answers 503 here while Healthz still reports 200, so load
// balancers rotate replicas without killing in-flight streams.
func (c *Client) Readyz(ctx context.Context) error {
	return c.probe(ctx, "/readyz")
}

// probe issues one GET health probe and maps non-200 to an error.
func (c *Client) probe(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s: %s", path, resp.Status)
	}
	return nil
}

// Metrics fetches the raw Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: metrics: %s", resp.Status)
	}
	return string(data), nil
}

// postJSON posts a JSON body and decodes a JSON reply.
func (c *Client) postJSON(ctx context.Context, path string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.attempt(ctx, func() (bool, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/json")
		return c.doJSON(req, into)
	})
}

// getJSON fetches a JSON reply.
func (c *Client) getJSON(ctx context.Context, path string, into any) error {
	return c.attempt(ctx, func() (bool, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return false, err
		}
		return c.doJSON(req, into)
	})
}

// doJSON executes one request attempt and decodes the JSON response or
// error body, classifying the failure's retryability.
func (c *Client) doJSON(req *http.Request, into any) (retryable bool, err error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport-level failure: nothing of the response was consumed,
		// and the API is idempotent, so the attempt is safely repeatable.
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return retryableStatus(resp.StatusCode), decodeError(resp)
	}
	return false, json.NewDecoder(resp.Body).Decode(into)
}

// attempt runs op under the client's retry policy: transient failures
// sleep an exponentially-backed-off, fully-jittered delay (floored at a
// 429's Retry-After hint) and re-run, up to Max retries.
func (c *Client) attempt(ctx context.Context, op func() (retryable bool, err error)) error {
	for try := 0; ; try++ {
		retryable, err := op()
		if err == nil {
			return nil
		}
		if !retryable || try >= c.retry.Max || ctx.Err() != nil {
			return err
		}
		if !Sleep(ctx, Backoff(c.retry.Base, c.retry.Cap, try, err)) {
			return err
		}
	}
}

// Backoff computes the delay before retry number try+1: full jitter over
// the exponentially growing ceiling min(cap, base·2^try), floored at the
// server's Retry-After hint when err carries one. A cap ≤ 0 leaves the
// growth unbounded. The ceiling saturates at the cap once base·2^try no
// longer fits a Duration, so a long retry chain keeps backing off instead
// of overflowing to a zero delay. It is the one backoff policy: the
// client's transparent retries and the cluster coordinator's shard
// re-dispatches both use it.
func Backoff(base, cap time.Duration, try int, err error) time.Duration {
	base = max(base, 0)
	if cap <= 0 {
		cap = math.MaxInt64 - 1 // the jitter draw below needs ceil+1
	}
	shift := min(uint(try), 62)
	ceil := base << shift
	if ceil>>shift != base || ceil > cap {
		ceil = cap // overflowed, or past the cap
	}
	delay := time.Duration(rand.Int63n(int64(ceil) + 1))
	var busy *BusyError
	if errors.As(err, &busy) && busy.RetryAfter > delay {
		delay = busy.RetryAfter
	}
	return delay
}

// Sleep waits for d or until ctx is done, reporting whether the full
// delay elapsed.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryableStatus reports whether a non-200 status is worth retrying:
// load shedding and gateway-transient failures are; client errors are
// deterministic and are not.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// decodeError converts a non-200 response to a Go error, mapping 429 to
// a BusyError (which unwraps to ErrBusy) with its Retry-After hint.
func decodeError(resp *http.Response) error {
	var e api.ErrorResponse
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return &BusyError{RetryAfter: retryAfter(resp), Msg: msg}
	}
	return fmt.Errorf("client: %s: %s", resp.Request.URL.Path, msg)
}

// retryAfter parses a delay-seconds Retry-After header (zero when absent
// or malformed; HTTP-date forms are ignored — kumquatd emits seconds).
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
