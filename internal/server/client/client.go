// Package client is the typed Go client for kumquatd's HTTP API. It
// shares the server's wire types (internal/server/api), streams execute
// input/output, and decodes the RunReport trailer, so callers get the
// same surface the in-process library offers — over a socket.
//
// The client is also the cluster plane's transport. Every call is one
// attempt: load shedding (BusyError, with the server's Retry-After), a
// transport error, a truncated stream or a lost report trailer surfaces
// to the caller as it happened. Retrying is the caller's decision — the
// cluster coordinator's dispatch loop re-runs a failed shard on another
// worker and counts every retry.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"kumquat/internal/obs"
	"kumquat/internal/server/api"
)

// ErrBusy is returned when the server sheds load (HTTP 429): the caller
// should back off and retry.
var ErrBusy = errors.New("client: server at capacity")

// BusyError is the concrete 429 error: it unwraps to ErrBusy and carries
// the server's Retry-After hint so a caller's retry loop (the cluster
// coordinator's) can honor it.
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

// Client talks to one kumquatd instance.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
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
// A failure after streaming began — a broken body, an error trailer, a
// lost report trailer — is returned with whatever bytes already reached
// out: the output cannot be trusted complete, and whether to run the
// script again is the caller's decision.
func (c *Client) Execute(ctx context.Context, script string, opts ExecuteOptions, stdin io.Reader, out io.Writer) (*api.ExecuteReport, error) {
	q := url.Values{"script": {script}}
	if opts.Mode != "" {
		q.Set("mode", opts.Mode)
	}
	if opts.K > 0 {
		q.Set("k", strconv.Itoa(opts.K))
	}
	if opts.Cluster != "" {
		q.Set("cluster", opts.Cluster)
	}
	if opts.Trace != "" {
		q.Set("trace", opts.Trace)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/execute?"+q.Encode(), stdin)
	if err != nil {
		return nil, err
	}
	// Propagate trace context: a span in ctx (a coordinator's shard
	// dispatch) rides the W3C traceparent header, and the worker's spans
	// come back in the trace trailer for stitching.
	sp := obs.FromContext(ctx)
	if sp != nil {
		req.Header.Set("traceparent", sp.SpanContext().Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	if _, err := io.Copy(out, resp.Body); err != nil {
		return nil, fmt.Errorf("client: streaming output: %w", err)
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
		return nil, fmt.Errorf("client: execute failed: %s", msg)
	}
	raw := resp.Trailer.Get(api.ReportTrailer)
	if raw == "" {
		// The trailer was lost (a proxy dropped it, the connection closed
		// at the chunk boundary): the output cannot be trusted complete.
		return nil, errors.New("client: response carried no run report trailer")
	}
	var rep api.ExecuteReport
	if err := json.Unmarshal([]byte(raw), &rep); err != nil {
		return nil, fmt.Errorf("client: decoding run report: %w", err)
	}
	return &rep, nil
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
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.doJSON(req, into)
}

// getJSON fetches a JSON reply.
func (c *Client) getJSON(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, into)
}

// doJSON executes the request and decodes the JSON response or error
// body.
func (c *Client) doJSON(req *http.Request, into any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(into)
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
