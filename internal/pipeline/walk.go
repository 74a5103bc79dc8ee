package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"kumquat/internal/dataflow"
	"kumquat/internal/obs"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// Leaves runs one segment over its input chunks — every chunk through
// every member — and returns the last member's per-chunk outputs in
// chunk order, with bytesOut[i][m] the output volume of member m on
// chunk i: the single (segment, shard) → bytes site of the repo. The
// executor's default is the pooled local fan-out (runLocal); the cluster
// coordinator is the one other implementation.
type Leaves func(ctx context.Context, seg *Segment, chunks []string) (outs []string, bytesOut [][]int64, err error)

// WithLeaves routes every chunk fan-out of one Execute call through
// wrap(local), where local is the executor's pooled in-process runner —
// so an implementation can dispatch some segments elsewhere and hand the
// rest back. It is an internal seam for execution planes inside this
// module (cluster.Coordinator): kumquat.Plan.Execute forwards it as
// kumquat.WithLeaves, whose parameter type cannot be named outside the
// module, and it is deliberately not plumbed to the CLI or the HTTP API.
func WithLeaves(wrap func(local Leaves) Leaves) ExecOpt {
	return func(c *execConfig) { c.leaves = wrap }
}

// executor is one Execute call's walker state: the program to walk, the
// source policy, and the shared execution resources.
type executor struct {
	env *unix.Env
	k   int
	// prog is the dataflow program this configuration walks.
	prog *dataflow.Program
	// keepLive keeps an external (possibly blocking) stdin as a live
	// stream so streamable regions consume it incrementally; otherwise it
	// is drained up front.
	keepLive bool
	// piped treats every region as pipe-connected over an always-live
	// source, whatever its kind (T_orig): unix.Exec's buffered fallback
	// runs whole-stream commands behind the same pipes.
	piped bool
	// pool bounds in-flight chunk executions; its size is also the tree
	// combine's width.
	pool *workerPool
	// leaves is the chunk fan-out (see Leaves).
	leaves Leaves
	// info, when non-nil, receives the region metrics and applied
	// rewrites; Execute sets it only when prog is the rewritten program.
	info *RunInfo
}

// stream is the data between two walk steps, in exactly one of two
// states (ARCHITECTURE.md draws the transitions); the third, split, lives
// inside a segment's leaf call:
//
//   - materialized: the whole stream is in data (file and in-memory
//     sources start here; combining, concatenating and draining return
//     here); a parallel segment splits it with textio.ChunkLines.
//   - live: the stream is still being produced behind live — an external
//     stdin, an upstream piped region, or a sort's lazy k-way merge.
//     Regions that can stream overlap through pipes without materializing
//     it; the first region that cannot drains it back to materialized.
type stream struct {
	data string
	live io.Reader
}

// drain materializes a live stream, observing ctx between reads, into
// one buffer of the stream's declared length when it has one. An
// in-memory buffer is taken as it is; an unstarted external source is
// read whole by its async helper.
func drain(ctx context.Context, r io.Reader) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	var buf []byte
	var err error
	switch src := r.(type) {
	case *bytes.Buffer:
		buf = src.Next(src.Len())
	case *asyncReader:
		buf, err = src.readAll()
	default:
		buf, err = textio.ReadAll(unix.ContextReader(ctx, r), declaredLen(r))
	}
	return textio.View(buf), err
}

// declaredLen is how many bytes r says remain (bytes.Reader,
// strings.Reader, a server's request body), or 0 when it does not say.
func declaredLen(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return 0
}

// source resolves the pipeline's input into the walk's initial stream:
// the registered input file (materialized), or stdin — live when the
// configuration keeps it so, drained otherwise.
func (ex *executor) source(ctx context.Context, p *Plan, stdin io.Reader) (stream, error) {
	var st stream
	switch {
	case p.InputFile != "":
		data, err := ex.env.FS.Read(p.InputFile)
		if err != nil {
			return st, err
		}
		st = stream{data: data}
	case stdin != nil:
		external := !inMemoryReader(stdin)
		if external {
			// A caller-supplied reader may block indefinitely; the async
			// wrapper keeps cancellation prompt even then.
			stdin = newAsyncReader(ctx, stdin)
		}
		if ex.piped || (external && ex.keepLive) {
			return stream{live: stdin}, nil
		}
		// Already-materialized input is drained even in Optimized mode:
		// chunk-parallelism beats streaming when nothing is incremental.
		data, err := drain(ctx, stdin)
		if err != nil {
			return st, err
		}
		st = stream{data: data}
	}
	if ex.piped {
		st = stream{live: strings.NewReader(st.data)}
	}
	return st, nil
}

// liveRegions owns the goroutines of one walk's piped regions and their
// single teardown.
type liveRegions struct {
	// ctx is the walk's context, cancelled by finish; parent is the
	// caller's, so a region can tell teardown from a real cancellation.
	ctx, parent context.Context
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	readers     []*io.PipeReader
	// fails holds each region's own failure, indexed in stage order.
	fails []error
}

// spawn runs one region over the live stream in on its own goroutine,
// writing into a pipe whose read end — returned — is the next live
// stream, so consecutive live regions overlap. The span is handed to the
// goroutine and ends when the region's stream drains, so its duration
// covers the overlap.
func (lr *liveRegions) spawn(ri int, cmd unix.Command, in io.Reader, rm *RegionMetrics, span *obs.Span) io.Reader {
	pr, pw := io.Pipe()
	lr.readers = append(lr.readers, pr)
	rm.Streamed = unix.CanStream(cmd)
	span.Attr("streamed", "true")
	start := time.Now()
	lr.wg.Add(1)
	go func() {
		defer lr.wg.Done()
		defer span.End()
		cr, cw := &countReader{r: in}, &countWriter{w: pw}
		err := unix.Exec(lr.ctx, cmd, cr, cw)
		rm.Wall, rm.BytesIn, rm.BytesOut = time.Since(start), cr.n, cw.n
		if err == nil {
			pw.Close()
			return
		}
		// An upstream failure read off the pipe passes through without
		// being re-reported for this region; so does the echo of the
		// walk's own teardown (its context cancelled, the caller's not).
		var up *stageError
		if !errors.As(err, &up) {
			up = &stageError{spec: cmd.Spec(), err: err}
			if lr.ctx.Err() == nil || lr.parent.Err() != nil {
				lr.fails[ri] = up
			}
		}
		pw.CloseWithError(up)
	}()
	return pr
}

// finish is the one teardown, run on every exit path so no goroutine
// outlives Execute: cancel the live regions, poison their pipes so
// blocked reads and writes return, wait, and join the failures in stage
// order. failure is the walking goroutine's own error (nil on success);
// the poison wraps it as a pass-through stage error so live regions do
// not record a sink or downstream failure as their own.
func (lr *liveRegions) finish(failure error) error {
	poison := failure
	if poison == nil {
		poison = io.ErrClosedPipe
	}
	var up *stageError
	if !errors.As(poison, &up) {
		poison = &stageError{spec: "<downstream>", err: poison}
	}
	lr.cancel()
	for _, pr := range lr.readers {
		pr.CloseWithError(poison)
	}
	lr.wg.Wait()
	var errs []error
	for _, f := range lr.fails {
		if f != nil {
			errs = append(errs, f)
		}
	}
	// A stage failure that travelled down the pipes to the walker is
	// already recorded at its origin.
	if failure != nil && !(errors.As(failure, &up) && len(errs) > 0) {
		errs = append(errs, failure)
	}
	return errors.Join(errs...)
}

// walk is the executor: it walks the program region by region over the
// stream's three states, tears the live regions down, and maps the region
// metrics onto the per-stage report.
func (ex *executor) walk(parent context.Context, p *Plan, stdin io.Reader, out io.Writer) ([]StageMetrics, error) {
	regions := ex.prog.Regions
	ctx, cancel := context.WithCancel(parent)
	lr := &liveRegions{ctx: ctx, parent: parent, cancel: cancel, fails: make([]error, len(regions))}
	rms := make([]RegionMetrics, len(regions))
	err := lr.finish(ex.walkRegions(ctx, lr, p, stdin, out, rms))

	metrics := make([]StageMetrics, len(p.Stages))
	for ri, r := range regions {
		attribute(metrics, r, &rms[ri])
	}
	if info := ex.info; info != nil {
		info.Fused = true
		info.Rewrites = make(map[string]int, len(ex.prog.Fired))
		for rule, n := range ex.prog.Fired {
			info.Rewrites[string(rule)] = n
		}
		for ri, r := range regions {
			rm := &rms[ri]
			rm.Stages, rm.Fused, rm.Exit = append([]int(nil), r.Nodes...), r.Fused, r.Exit.String()
			rm.Rules = ruleNames(r)
		}
		info.Regions = rms
	}
	return metrics, err
}

// walkRegions runs every region in order and writes the final stream to
// out, returning the walking goroutine's own failure (live regions
// report theirs through lr). A region over a live stream that it can
// consume incrementally is spawned behind a pipe; every other region
// runs here, synchronously, as the first member of a segment, and leaves
// the stream materialized or live.
func (ex *executor) walkRegions(ctx context.Context, lr *liveRegions, p *Plan, stdin io.Reader, out io.Writer, rms []RegionMetrics) error {
	st, err := ex.source(ctx, p, stdin)
	if err != nil {
		return err
	}
	regions := ex.prog.Regions
	for ri := 0; ri < len(regions); {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := regions[ri]
		if st.live != nil && (ex.piped || ex.prog.Streamable(r)) {
			cmd := regionRun(p, r)
			_, span := stepSpan(ctx, regions[ri:ri+1], cmd.Spec())
			st.live = lr.spawn(ri, cmd, st.live, &rms[ri], span)
			ri++
			continue
		}
		end := ex.segmentEnd(ri)
		seg := newSegment(p, regions[ri:end])
		spec := seg.Script
		if end == ri+1 {
			spec = seg.Members[0].Spec()
		}
		sctx, span := stepSpan(ctx, regions[ri:end], spec)
		start := time.Now()
		err := ex.runSegment(sctx, p, regions[ri:end], end == len(regions), seg, &st, rms[ri:end])
		rms[ri].Wall = time.Since(start)
		span.End()
		if err != nil {
			return err
		}
		ri = end
	}
	if st.live != nil {
		_, err = io.Copy(out, unix.ContextReader(ctx, st.live))
	} else {
		_, err = io.WriteString(out, st.data)
	}
	return err
}

// segmentEnd returns the end (exclusive) of the segment starting at
// region ri: a region run chunk-parallel takes in every region its split
// exits feed, up to the first exit that is not a split; any other region
// is a segment of its own.
func (ex *executor) segmentEnd(ri int) int {
	regions := ex.prog.Regions
	end := ri + 1
	if regions[ri].Parallel && ex.k > 1 {
		for end < len(regions) && regions[end-1].Exit == dataflow.ExitSplit {
			end++
		}
	}
	return end
}

// stepSpan opens the span of one walk step: "stage" for a single stage,
// "region" for a fused region, "segment" for a split-joined run of
// regions.
func stepSpan(ctx context.Context, regions []*dataflow.Region, spec string) (context.Context, *obs.Span) {
	name := "stage"
	switch {
	case len(regions) > 1:
		name = "segment"
	case regions[0].Fused:
		name = "region"
	}
	ctx, span := obs.StartSpan(ctx, name)
	if span.Enabled() {
		span.Attr("spec", spec)
		var rules []string
		for _, r := range regions {
			rules = append(rules, ruleNames(r)...)
		}
		if len(rules) > 0 {
			span.Attr("exit", regions[len(regions)-1].Exit.String())
			span.Attr("rules", strings.Join(rules, ","))
		}
	}
	return ctx, span
}

// runSegment executes one segment synchronously. A live stream is
// drained first (the drain counts toward the first member's wall, as it
// does when a whole-stream command buffers behind a pipe). A parallel
// segment chunks the materialized stream and sends every chunk through
// every member in one leaf call, then applies the last member's exit; a
// serial one is a single region run on the whole stream. Every member
// reports the leaf call's chunk count and its own byte volumes; the
// segment's wall is the first member's, as a fused region's is its first
// stage's.
func (ex *executor) runSegment(ctx context.Context, p *Plan, regions []*dataflow.Region, last bool, seg *Segment, st *stream, rms []RegionMetrics) error {
	if st.live != nil {
		data, err := drain(ctx, st.live)
		if err != nil {
			return err
		}
		*st = stream{data: data}
	}
	rms[0].BytesIn = int64(len(st.data))
	if !regions[0].Parallel || ex.k <= 1 {
		cmd := seg.Members[0]
		next, err := cmd.Run(st.data)
		if err != nil {
			return fmt.Errorf("pipeline: stage %q: %w", cmd.Spec(), err)
		}
		*st = stream{data: next}
		rms[0].BytesOut = int64(len(next))
		return nil
	}
	chunks := textio.ChunkLines(st.data, ex.k)
	outs, bytesOut, err := ex.leaves(ctx, seg, chunks)
	if err != nil {
		return err
	}
	n := len(rms)
	for m := range rms {
		rms[m].Chunks = len(chunks)
		if m == n-1 {
			break // the exit measures the last member's output
		}
		for _, row := range bytesOut {
			rms[m].BytesOut += row[m]
		}
		rms[m+1].BytesIn = rms[m].BytesOut
	}
	return ex.exit(ctx, p, regions[n-1], last, outs, st, &rms[n-1])
}

// exit applies a segment's last exit to its chunk outputs, leaving the
// stream in the state the exit names (a split exit never ends a
// segment). The final region always combines: a single output stream
// must emerge.
func (ex *executor) exit(ctx context.Context, p *Plan, r *dataflow.Region, last bool, outs []string, st *stream, rm *RegionMetrics) error {
	kind := r.Exit
	if last {
		kind = dataflow.ExitCombine
	}
	sp := p.Stages[r.Nodes[len(r.Nodes)-1]]
	switch kind {
	case dataflow.ExitConcat:
		*st = stream{data: strings.Join(outs, "")}
		rm.BytesOut = int64(len(st.data))
	case dataflow.ExitMerge:
		sc, ok := sp.Cmd.(*unix.SortCmd)
		if !ok {
			return fmt.Errorf("pipeline: merge-stream exit on non-sort stage %q", sp.Spec)
		}
		*st = stream{live: sc.MergeReader(outs...)}
		rm.BytesOut = totalLen(outs)
	default:
		// The stage's synthesized combiner, on the tree-reduction plane.
		_, span := obs.StartSpan(ctx, "combine")
		span.AttrInt("parts", int64(len(outs)))
		start := time.Now()
		combined, err := sp.Synth.Combiner.CombineKTree(outs, ex.pool.size())
		rm.CombineWall = time.Since(start)
		span.End()
		if err != nil {
			return fmt.Errorf("pipeline: stage %q combine: %w", sp.Spec, err)
		}
		*st = stream{data: combined}
		rm.BytesOut = int64(len(combined))
	}
	return nil
}

// runLocal is the default Leaves: the segment runs on every chunk
// concurrently, bounded by the Execute call's shared worker pool. It is
// the only place per-chunk goroutines are spawned.
func (ex *executor) runLocal(ctx context.Context, seg *Segment, chunks []string) ([]string, [][]int64, error) {
	_, span := obs.StartSpan(ctx, "chunks")
	span.AttrInt("n", int64(len(chunks)))
	defer span.End()
	outs := make([]string, len(chunks))
	bytesOut := make([][]int64, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i := range chunks {
		if err := ex.pool.acquire(ctx); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer ex.pool.release()
			outs[i], bytesOut[i], errs[i] = seg.Run(i, chunks[i])
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return outs, bytesOut, nil
}
