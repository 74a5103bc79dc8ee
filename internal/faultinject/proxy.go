package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"
)

// stallFor is how long a FaultStall holds the response mid-body before
// completing it normally: well past the chaos suite's speculation floor,
// so a stall reliably draws a speculative duplicate.
const stallFor = 400 * time.Millisecond

// errTruncated is the body read error a FaultTruncate deals; the
// reverse proxy answers it by aborting the response mid-chunk.
var errTruncated = errors.New("faultinject: injected truncation")

// faultKey carries a request's dealt fault from ServeHTTP to the
// reverse proxy's ModifyResponse.
type faultKey struct{}

// Proxy is a single-target chaos reverse proxy: every request is dealt
// the next fault of the cycle and is either answered without contacting
// the target (reset, 503, 429) or forwarded to it, its response sabotaged
// as dealt (stall, truncate, drop-trailer). It implements http.Handler
// and is safe for concurrent use.
type Proxy struct {
	rp *httputil.ReverseProxy

	mu sync.Mutex
	// next is the cycle entry the next request is dealt.
	next   int
	counts map[Fault]int64
	// only, when set, is dealt on every request instead of the cycle.
	// Only in-package tests set it, to exercise one fault at a time.
	only Fault
}

// New builds a proxy in front of the target base URL (e.g.
// "http://127.0.0.1:9917") that starts the fault cycle at entry seed
// modulo its length.
func New(target string, seed int64) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("faultinject: bad target %q: %w", target, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("faultinject: target %q needs scheme and host", target)
	}
	// Go reads a response's trailers through the transport's read buffer
	// and refuses any longer than it; the default 4 KiB cannot hold a
	// traced cold worker's report trailer.
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.ReadBufferSize = 64 << 10
	n := int64(len(cycle))
	p := &Proxy{next: int((seed%n + n) % n), counts: make(map[Fault]int64)}
	p.rp = &httputil.ReverseProxy{
		Rewrite:        func(r *httputil.ProxyRequest) { r.SetURL(u) },
		Transport:      t,
		ModifyResponse: sabotage,
		ErrorLog:       log.New(io.Discard, "", 0),
	}
	return p, nil
}

// Counts returns how many times each fault has been dealt so far
// (FaultNone included, counting untouched pass-throughs).
func (p *Proxy) Counts() map[Fault]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Fault]int64, len(p.counts))
	for f, n := range p.counts {
		out[f] = n
	}
	return out
}

// deal counts and returns the fault for one request: the cycle's next
// entry, or the forced fault.
func (p *Proxy) deal() Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.only
	if f == "" {
		f = cycle[p.next]
		p.next = (p.next + 1) % len(cycle)
	}
	p.counts[f]++
	return f
}

// ServeHTTP deals one fault and serves the request under it.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fault := p.deal()
	switch fault {
	case FaultReset:
		// Sever the connection before any response bytes reach the
		// client. ErrAbortHandler is the stdlib's sanctioned way to
		// abort mid-response without log noise.
		panic(http.ErrAbortHandler)
	case FaultError503:
		http.Error(w, "faultinject: injected 503", http.StatusServiceUnavailable)
		return
	case FaultBusy429:
		w.Header().Set("Retry-After", "0")
		http.Error(w, "faultinject: injected 429", http.StatusTooManyRequests)
		return
	}
	p.rp.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), faultKey{}, fault)))
}

// sabotage applies the request's dealt fault to the forwarded response:
// a stall, truncate or drop-trailer fault wraps its body, and a dropped
// trailer is never announced.
func sabotage(resp *http.Response) error {
	fault, _ := resp.Request.Context().Value(faultKey{}).(Fault)
	switch fault {
	case FaultNone:
		return nil
	case FaultDropTrailer:
		resp.Trailer = nil
	}
	resp.Body = &body{ReadCloser: resp.Body, resp: resp, fault: fault}
	return nil
}

// body is a forwarded response body under a stall, truncate or
// drop-trailer fault. The reverse proxy writes and flushes each read
// before the next, so a fault dealt on the second read lands mid-stream.
type body struct {
	io.ReadCloser
	resp  *http.Response
	fault Fault
	reads int
	// eof holds back an end of body the first read met, so the second
	// read still comes.
	eof bool
}

// Read passes the first read through; on the second, a stall waits out
// stallFor (bounded by the request's context) and a truncation fails it
// and every later read.
func (b *body) Read(buf []byte) (int, error) {
	b.reads++
	switch {
	case b.reads == 1:
		n, err := b.ReadCloser.Read(buf)
		if err == io.EOF {
			b.eof, err = true, nil
		}
		return n, err
	case b.fault == FaultTruncate:
		return 0, errTruncated
	case b.fault == FaultStall && b.reads == 2:
		stall(b.resp.Request.Context())
	}
	if b.eof {
		return 0, io.EOF
	}
	return b.ReadCloser.Read(buf)
}

// Close closes the upstream body. Reading it to its end filled in the
// trailers the transport received; a drop-trailer fault discards them
// there, before the reverse proxy copies them out.
func (b *body) Close() error {
	err := b.ReadCloser.Close()
	if b.fault == FaultDropTrailer {
		b.resp.Trailer = nil
	}
	return err
}

// stall sleeps stallFor, or until ctx is done so an abandoned client
// does not pin the handler.
func stall(ctx context.Context) {
	t := time.NewTimer(stallFor)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
