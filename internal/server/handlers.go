package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kumquat"
	"kumquat/internal/obs"
	"kumquat/internal/server/api"
	"kumquat/internal/textio"
)

// handleSynthesize serves POST /v1/synthesize: one command or pipeline
// fragment spec in, the synthesis verdict out, with an exact cache-tier
// attribution.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req api.SynthesizeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, bodyErrStatus(err), "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.Spec) == "" {
		writeError(w, http.StatusBadRequest, "spec is required")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	start := time.Now()
	res, tier, err := s.sys.SynthesizeTier(r.Context(), req.Spec)
	if res == nil {
		// The spec never parsed as a command — a caller error, not a
		// synthesis verdict.
		writeError(w, http.StatusBadRequest, "cannot parse command: %v", err)
		return
	}
	if ctxErr := r.Context().Err(); ctxErr != nil {
		// Client gone or deadline passed mid-synthesis; the best-so-far
		// result is not a verdict, so don't report it as one.
		writeError(w, http.StatusServiceUnavailable, "synthesis cancelled: %v", ctxErr)
		return
	}
	resp := api.SynthesizeResponse{
		Spec: res.Spec,
		Space: api.SpaceBreakdown{
			Total: res.Space.Total(), Rec: res.Space.Rec,
			Struct: res.Space.Struct, Run: res.Space.Run,
		},
		Rounds:          res.Rounds,
		Observations:    res.Observations,
		Cached:          tier.Cached(),
		CacheTier:       tier.String(),
		SynthDurationMS: ms(res.Duration),
		DurationMS:      ms(time.Since(start)),
		Cache:           s.sys.SynthCacheStats(),
	}
	if err != nil {
		resp.Unsupported = err.Error()
	} else {
		resp.Combiner = res.Combiner.String()
		resp.Plausible = res.DisplayPlausible()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleParallelize serves POST /v1/parallelize: a script (plus optional
// input files) in, the plan summary out. Planning happens in a private
// environment; combiners come from the shared warm engine.
func (s *Server) handleParallelize(w http.ResponseWriter, r *http.Request) {
	var req api.ParallelizeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, bodyErrStatus(err), "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.Script) == "" {
		writeError(w, http.StatusBadRequest, "script is required")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	env := kumquat.NewEnv()
	for name, content := range req.Files {
		env.Register(name, content)
	}
	start := time.Now()
	plan, err := s.sys.ParallelizeInEnv(r.Context(), env, ensureTrailingNewline(req.Script))
	if err != nil {
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "cannot parallelize: %v", err)
		return
	}
	par, total, elim := plan.Counts()
	resp := api.ParallelizeResponse{
		Parallelized: par,
		Total:        total,
		Eliminated:   elim,
		Stages:       plan.Stages(),
		SynthCache:   plan.SynthCache(),
		DurationMS:   ms(time.Since(start)),
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxParallelism bounds an execute request's k: splitting a stream k
// ways allocates k chunks, outputs and chunk runs up front, so an
// unbounded k lets one small request exhaust the daemon's memory. The
// bound sits far above the paper's largest k (16).
const maxParallelism = 1024

// handleExecute serves POST /v1/execute: the script comes in query
// parameters (script, k, mode, cluster, trace), the request body is the
// pipeline's input, stdout streams back as the response body, and the
// RunReport arrives as the X-Kumquat-Report trailer once the stream
// ends. The request body binds to the script's input source: standard
// input for stdin-reading pipelines, or the first pipeline's `cat FILE`
// / `< FILE` source otherwise. With the cluster on, the same run goes
// through the coordinator, its leaves sharded across the workers, and
// the report carries the run's ClusterReport.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	script := q.Get("script")
	if strings.TrimSpace(script) == "" {
		writeError(w, http.StatusBadRequest, "script query parameter is required")
		return
	}
	mode := kumquat.Optimized
	if name := q.Get("mode"); name != "" {
		var err error
		if mode, err = kumquat.ParseMode(name); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	k := s.cfg.DefaultParallelism
	if ks := q.Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n < 1 || n > maxParallelism {
			writeError(w, http.StatusBadRequest, "k must be an integer from 1 to %d", maxParallelism)
			return
		}
		k = n
	}
	// cluster selects the dispatch plane: "on" demands the coordinator
	// (400 without workers), "off" forces in-process execution, and the
	// default uses the cluster whenever one is configured. The cluster
	// walks only the optimized program, so any other mode runs in-process
	// by default and is refused with "on".
	useCluster := s.clu != nil && mode == kumquat.Optimized
	switch q.Get("cluster") {
	case "", "auto":
	case "on":
		if s.clu == nil {
			writeError(w, http.StatusBadRequest, "cluster=on but no workers are configured")
			return
		}
		if mode != kumquat.Optimized {
			writeError(w, http.StatusBadRequest, "cluster=on runs the optimized program, not mode %v", mode)
			return
		}
	case "off":
		useCluster = false
	default:
		writeError(w, http.StatusBadRequest, "cluster must be on, off or auto")
		return
	}
	wantTrace := false
	switch q.Get("trace") {
	case "", "off":
	case "on":
		wantTrace = true
	default:
		writeError(w, http.StatusBadRequest, "trace must be on or off")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	// Start the request's trace: a traceparent header joins an upstream
	// coordinator's trace (the spans ship back in the trace trailer);
	// ?trace=on starts a fresh local one, retrievable at /v1/traces/{id}.
	var span *obs.Span
	remoteTrace := false
	if s.trc != nil {
		if sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			var ctx context.Context
			ctx, span = s.trc.StartRemote(r.Context(), "rpc execute", sc)
			r = r.WithContext(ctx)
			remoteTrace = true
		} else if wantTrace {
			var ctx context.Context
			ctx, span = s.trc.StartTrace(r.Context(), "execute")
			r = r.WithContext(ctx)
		}
	}
	if span != nil {
		if rec, ok := w.(*statusRecorder); ok {
			rec.traceID = span.SpanContext().TraceID.String()
		}
	}
	// The one exit: whichever path returns, the trace root ends (tagged
	// with failure, if any) and a finished run's report goes out.
	var rep *api.ExecuteReport
	var failure error
	defer func() { finishExecute(w, span, remoteTrace, rep, failure) }()

	// A body that declares more than the limit is refused before any
	// buffer exists; one that runs past it mid-read fails at the limit
	// (instrument bounds every request body).
	if limit := s.cfg.MaxBodyBytes; limit > 0 && r.ContentLength > limit {
		failure = &http.MaxBytesError{Limit: limit}
		writeError(w, http.StatusRequestEntityTooLarge, "request body of %d bytes exceeds the %d-byte limit", r.ContentLength, limit)
		return
	}
	presize := s.presize(r)

	env := kumquat.NewEnv()
	plan, err := s.sys.ParallelizeInEnv(r.Context(), env, ensureTrailingNewline(script))
	if err != nil {
		failure = err
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "cannot parallelize: %v", err)
		return
	}

	// Bind the request body to the script's input, before any response
	// header is set. It streams into a stdin-reading first pipeline only
	// on a local run whose writer goes full duplex: Go's HTTP/1 server
	// otherwise discards the unread body once the response starts, and
	// the cluster shards a materialized corpus. Every other run reads the
	// body whole, so a failed read still answers 400/413, and binds it to
	// the first pipeline's `cat FILE` / `< FILE` source or to stdin. The
	// file binding is unconditional: the environment's synthetic corpus
	// must never shadow a client's data behind a colliding file name.
	var input string
	if inputs := plan.Inputs(); len(inputs) > 0 {
		input = inputs[0]
	}
	var stdin io.Reader
	if input == "" && !useCluster && http.NewResponseController(w).EnableFullDuplex() == nil {
		stdin = &sizedBody{r: r.Body, n: presize}
	} else {
		data, err := textio.ReadAll(r.Body, presize)
		if err != nil {
			failure = err
			writeError(w, bodyErrStatus(err), "reading request body: %v", err)
			return
		}
		// data is owned here and never mutated: bind it, not a copy.
		if input != "" {
			env.Register(input, textio.View(data))
		} else {
			stdin = bytes.NewBuffer(data)
		}
	}

	// Declare trailers before the body commits, then stream. The
	// coordinator pins mode, k and leaves after these options.
	trailers := api.ReportTrailer + ", " + api.ErrorTrailer
	if remoteTrace {
		trailers += ", " + api.TraceTrailer
	}
	w.Header().Set("Trailer", trailers)
	w.Header().Set("Content-Type", "application/octet-stream")
	opts := []kumquat.ExecOption{
		kumquat.WithOutput(&flushWriter{w: w}),
		kumquat.WithParallelism(k),
		kumquat.WithMode(mode),
		kumquat.WithStdin(stdin),
	}
	var run *kumquat.RunReport
	var cr *api.ClusterReport
	if useCluster {
		var c api.ClusterReport
		run, c, err = s.clu.Execute(r.Context(), plan, opts...)
		cr = &c
	} else {
		run, err = plan.Execute(r.Context(), opts...)
	}
	if err != nil {
		// The stream may already be half-written; the error must travel
		// as a trailer. (Before the first byte this still downgrades the
		// response to an empty 200 + error trailer — the price of
		// streaming.)
		failure = err
		w.Header().Set(api.ErrorTrailer, err.Error())
		return
	}
	rep = &api.ExecuteReport{RunReport: *run, Cluster: cr}
}

// finishExecute is handleExecute's deferred exit. It ends the request's
// trace root, with an error attribute on a failing path: a remote
// (coordinator-joined) trace ships the worker's span records back in the
// trace trailer, a local ?trace=on stamps the report with the summary
// the client uses to fetch the full trace. Then a finished run's report
// goes out as its trailer.
func finishExecute(w http.ResponseWriter, span *obs.Span, remote bool, rep *api.ExecuteReport, failure error) {
	if span != nil {
		if failure != nil {
			span.Attr("error", failure.Error())
		}
		span.End()
		if remote {
			if recs, err := json.Marshal(span.Records()); err == nil {
				w.Header().Set(api.TraceTrailer, string(recs))
			}
		} else if rep != nil {
			rep.Trace = &api.TraceSummary{
				TraceID: span.SpanContext().TraceID.String(),
				Spans:   len(span.Records()),
			}
		}
	}
	if rep == nil {
		return
	}
	report, err := json.Marshal(rep)
	if err != nil {
		w.Header().Set(api.ErrorTrailer, err.Error())
		return
	}
	w.Header().Set(api.ReportTrailer, string(report))
}

// flushWriter flushes after every write so execute output streams to the
// client incrementally instead of sitting in the server's buffer.
type flushWriter struct {
	w http.ResponseWriter
}

// Write forwards to the response and flushes.
func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// decodeJSON decodes a JSON request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// unlimitedPresize caps the buffer a declared Content-Length reserves
// up front when the server has no body limit (MaxBodyBytes < 0): a
// larger body still reads, growing its buffer past the cap as it arrives.
const unlimitedPresize = 64 << 20

// presize is how many bytes a reader materializing r's body may allocate
// up front: its declared Content-Length, never more than MaxBodyBytes —
// or, with no limit configured, than unlimitedPresize, so a declared
// length alone cannot reserve unbounded memory. 0 when the length is
// unknown (a chunked body).
func (s *Server) presize(r *http.Request) int {
	limit := s.cfg.MaxBodyBytes
	if limit <= 0 {
		limit = unlimitedPresize
	}
	return int(max(min(r.ContentLength, limit), 0))
}

// sizedBody is an execute body bound to stdin: it reports how many bytes
// it still declares (Len, as bytes.Reader does), so the executor's drain
// reads it into one buffer of its final size.
type sizedBody struct {
	r io.Reader
	n int
}

// Read reads from the body, counting down the declared length.
func (b *sizedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n = max(b.n-n, 0)
	return n, err
}

// Len reports the bytes the body still declares.
func (b *sizedBody) Len() int { return b.n }

// bodyErrStatus is the status for a failed request-body read: 413 when
// the body ran past the server's limit, 400 otherwise.
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ensureTrailingNewline appends the newline the script grammar requires
// of its final pipeline line.
func ensureTrailingNewline(script string) string {
	if strings.HasSuffix(script, "\n") {
		return script
	}
	return script + "\n"
}
