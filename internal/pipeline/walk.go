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
	"kumquat/internal/par"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// Leaves runs one segment over its input chunks — every chunk through
// every member — and returns the last member's per-chunk outputs in
// chunk order, with bytesOut[i][m] the output volume of member m on
// chunk i: the single (segment, shard) → bytes site of the repo. The
// executor's default is the bounded local fan-out (runLocal); the cluster
// coordinator is the one other implementation.
type Leaves func(ctx context.Context, seg *Segment, chunks []string) (outs []string, bytesOut [][]int64, err error)

// WithLeaves routes every chunk fan-out of one Execute call through
// wrap(local), where local is the executor's bounded in-process runner —
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
	// stream so streamable regions consume it block by block; otherwise
	// it is drained up front.
	keepLive bool
	// piped runs every line-mapper region live, whatever the source
	// (T_orig): a materialized stream is made live again in front of one.
	piped bool
	// width bounds in-flight chunk executions.
	width int
	// leaves is the chunk fan-out (see Leaves).
	leaves Leaves
	// memo is the Env's segment memo on a local re-run of the Env (nil
	// on its first run and whenever a Leaves wrapper dispatches chunks).
	memo *unix.Memo
	// info, when non-nil, receives the region metrics; Execute sets it
	// only when prog is the rewritten program.
	info *RunInfo
}

// stream is the data between two walk steps, in exactly one of two
// states (ARCHITECTURE.md draws the transitions); the third, split, lives
// inside a segment's leaf call:
//
//   - materialized: the whole stream is in data (file and in-memory
//     sources start here; combining, concatenating and draining return
//     here); a parallel segment splits it with textio.ChunkLines.
//   - live: the stream is still arriving as the line-aligned blocks of
//     live — an external stdin's pump or an upstream live region.
//     Line-mapper regions run on each block as it arrives; the first
//     region that cannot drains it back to materialized.
type stream struct {
	data string
	live *blocks
}

// blocks is a live stream: its line-aligned blocks, in order, on c, which
// is closed after the last. err, set before c is closed, is the source's
// read failure (nil at a clean end); a live region's own failure goes to
// the walk's teardown instead, which cancels ctx.
type blocks struct {
	ctx context.Context
	c   chan string
	err error
}

// next returns the stream's next block, io.EOF after the last, and the
// walk's error once the walk is cancelled: the form unix.EachBlock reads.
func (b *blocks) next() (string, error) {
	select {
	case blk, ok := <-b.c:
		if ok {
			return blk, nil
		}
		if b.err != nil {
			return "", b.err
		}
		return "", io.EOF
	case <-b.ctx.Done():
		return "", b.ctx.Err()
	}
}

// blocksOf makes a materialized stream live, for Pipelined mode: its
// line-aligned views of about unix.BlockSize bytes, queued and closed up
// front, so no goroutine feeds them.
func blocksOf(ctx context.Context, data string) *blocks {
	views := textio.ChunkLines(data, len(data)/unix.BlockSize+1)
	b := &blocks{ctx: ctx, c: make(chan string, len(views))}
	for _, v := range views {
		b.c <- v
	}
	close(b.c)
	return b
}

// pump feeds an external stdin to the walk from a goroutine of its own,
// so cancellation unblocks the walk even while the source is quiescent
// (a silent terminal, an idle socket): as line-aligned blocks when a
// region consumes it live, otherwise as one block read whole. A source
// that is mid-Read at cancellation parks the goroutine until that Read
// returns — the unavoidable residue of interrupting a blocking io.Reader.
func pump(ctx context.Context, r io.Reader, live bool) *blocks {
	out := &blocks{ctx: ctx, c: make(chan string)}
	next := unix.ReadBlocks(unix.ContextReader(ctx, r))
	if !live {
		read := false
		next = func() (string, error) {
			if read {
				return "", io.EOF
			}
			read = true
			return materialize(ctx, r)
		}
	}
	go func() {
		defer close(out.c)
		out.err = unix.EachBlock(next, func(blk string) error {
			select {
			case out.c <- blk:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	return out
}

// materialize reads r whole, observing ctx between reads, into one buffer
// of the length r declares when it declares one — a bytes.Reader's Len, a
// request body's Content-Length; an in-memory bytes.Buffer is taken as it
// is, without a copy.
func materialize(ctx context.Context, r io.Reader) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if b, ok := r.(*bytes.Buffer); ok {
		return textio.View(b.Next(b.Len())), nil
	}
	buf, err := textio.ReadAll(unix.ContextReader(ctx, r), declaredLen(r))
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

// streams reports whether region r runs live, on a goroutine over its
// input's blocks: its input is live (in Pipelined mode, whatever it is),
// its command is a line mapper (a fused chain always is) and, in a
// region that runs chunked (parallel, at k > 1), concat-combined, so
// streaming equals chunk-and-concat.
func (ex *executor) streams(r *dataflow.Region, live bool) bool {
	concat := ex.prog.Graph.Nodes[r.Nodes[0]].Class == dataflow.ClassConcat
	return (live || ex.piped) && unix.CanStream(r.Cmd) && (!r.Parallel || ex.k <= 1 || concat)
}

// source resolves the pipeline's input into the walk's initial stream:
// the registered input file or an in-memory stdin (materialized), or an
// external stdin — pumped, and live exactly when the first region
// consumes it live.
func (ex *executor) source(ctx context.Context, p *Plan, stdin io.Reader) (stream, error) {
	switch {
	case p.InputFile != "":
		data, err := ex.env.FS.Read(p.InputFile)
		return stream{data: data}, err
	case stdin == nil:
		return stream{}, nil
	case inMemoryReader(stdin):
		data, err := materialize(ctx, stdin)
		return stream{data: data}, err
	}
	regions := ex.prog.Regions
	live := len(regions) > 0 && ex.streams(regions[0], ex.keepLive)
	src := pump(ctx, stdin, live)
	if live {
		return stream{live: src}, nil
	}
	data, err := unix.JoinBlocks(src.next)
	return stream{data: data}, err
}

// liveRegions owns the goroutines of one walk's live regions and their
// single teardown.
type liveRegions struct {
	// ctx is the walk's context: every live send and receive selects on
	// it, and cancel ends it on a region's failure and at teardown.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// fails holds each region's own failure, indexed in stage order.
	fails []error
}

// spawn runs a line-mapper region over the live stream in on its own
// goroutine — the command's Run on each block as it arrives — and returns
// its output, the next live stream, so consecutive live regions overlap.
// A failure of the region's own (its Run, or the source's read) is
// recorded and cancels the walk; the walk's cancellation is not one. The
// span ends when the region's stream does, so its duration covers the
// overlap.
func (lr *liveRegions) spawn(ri int, cmd unix.Command, in *blocks, rm *RegionMetrics, span *obs.Span) *blocks {
	out := &blocks{ctx: lr.ctx, c: make(chan string)}
	rm.Streamed = true
	span.Attr("streamed", "true")
	start := time.Now()
	lr.wg.Add(1)
	go func() {
		defer lr.wg.Done()
		defer span.End()
		err := unix.EachBlock(in.next, func(blk string) error {
			rm.BytesIn += int64(len(blk))
			res, err := cmd.Run(blk)
			if err != nil || res == "" {
				return err
			}
			rm.BytesOut += int64(len(res))
			select {
			case out.c <- res:
				return nil
			case <-lr.ctx.Done():
				return lr.ctx.Err()
			}
		})
		rm.Wall = time.Since(start)
		if err == nil {
			close(out.c)
		} else if !errors.Is(err, lr.ctx.Err()) {
			lr.fails[ri] = fmt.Errorf("pipeline: %w", unix.Failure(cmd, err))
			lr.cancel()
		}
	}()
	return out
}

// finish is the one teardown, run on every exit path so no live region
// outlives Execute: cancel the walk's context, wait, and join the
// regions' own failures in stage order. failure is the walking
// goroutine's own error (nil on success); the cancellation a failed
// region sent down the walk is not one.
func (lr *liveRegions) finish(failure error) error {
	lr.cancel()
	lr.wg.Wait()
	var errs []error
	for _, f := range lr.fails {
		if f != nil {
			errs = append(errs, f)
		}
	}
	if failure != nil && !(len(errs) > 0 && errors.Is(failure, context.Canceled)) {
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
	lr := &liveRegions{ctx: ctx, cancel: cancel, fails: make([]error, len(regions))}
	rms := make([]RegionMetrics, len(regions))
	err := lr.finish(ex.walkRegions(ctx, lr, p, stdin, out, rms))

	metrics := make([]StageMetrics, len(p.Stages))
	for ri, r := range regions {
		attribute(metrics, r, &rms[ri])
	}
	if info := ex.info; info != nil {
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
// report theirs through lr). A region that streams is spawned over the
// live stream's blocks; every other region runs here, synchronously, as
// the first member of a segment, and leaves the stream materialized.
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
		if ex.streams(r, st.live != nil) {
			if st.live == nil {
				st.live = blocksOf(ctx, st.data)
			}
			_, span := stepSpan(ctx, regions[ri:ri+1], r.Cmd.Spec())
			st = stream{live: lr.spawn(ri, r.Cmd, st.live, &rms[ri], span)}
			ri++
			continue
		}
		end := ex.segmentEnd(ri)
		seg := newSegment(regions[ri:end])
		sctx, span := stepSpan(ctx, regions[ri:end], seg.Chain.Spec())
		start := time.Now()
		err := ex.runSegment(sctx, regions[ri:end], end == len(regions), seg, &st, rms[ri:end])
		rms[ri].Wall = time.Since(start)
		span.End()
		if err != nil {
			return err
		}
		ri = end
	}
	if st.live != nil {
		return unix.EachBlock(st.live.next, func(blk string) error {
			_, err := io.WriteString(out, blk)
			return err
		})
	}
	_, err = io.WriteString(out, st.data)
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

// Stride is the byte stride a re-run cuts a stream at when the Env's
// memo is consulted: a materialized stream of at least two strides is cut
// at every Stride bytes, each cut snapped forward to the next line start
// (textio.StrideLines), so a chunk keeps its bounds when the stream
// grows at its end and the memo can answer it on the next run. A shorter
// stream is cut into k chunks as on a first run.
const Stride = 1 << 20

// runSegment executes one segment synchronously. A live stream is
// drained first — its blocks joined once, at their total size — and the
// drain counts toward the first member's wall. A parallel
// segment chunks the materialized stream and sends every chunk through
// every member in one leaf call, then applies the last member's exit; a
// serial one is a single region run on the whole stream. Every member
// reports the leaf call's chunk count and its own byte volumes; the
// segment's wall is the first member's, as a fused region's is its first
// stage's. On a re-run of the Env, a segment that reads and writes none
// of its files is cut at strides and run against the Env's memo, and
// its first member reports the memo's hits, misses and reused bytes.
func (ex *executor) runSegment(ctx context.Context, regions []*dataflow.Region, last bool, seg *Segment, st *stream, rms []RegionMetrics) error {
	if st.live != nil {
		data, err := unix.JoinBlocks(st.live.next)
		if err != nil {
			return err
		}
		*st = stream{data: data}
	}
	rms[0].BytesIn = int64(len(st.data))
	if !regions[0].Parallel || ex.k <= 1 {
		next, err := regions[0].Cmd.Run(st.data)
		if err != nil {
			return fmt.Errorf("pipeline: %w", unix.Failure(regions[0].Cmd, err))
		}
		*st = stream{data: next}
		rms[0].BytesOut = int64(len(next))
		return nil
	}
	var memo *unix.MemoRun
	chunks := textio.ChunkLines(st.data, ex.k)
	if ex.memo != nil && !unix.ReadsEnv(seg.Chain) {
		if len(st.data) >= 2*Stride {
			chunks = textio.StrideLines(st.data, Stride)
		}
		memo = ex.memo.Begin(seg.memoKey(regions[0].Nodes[0]), len(chunks))
	}
	var outs []string
	var bytesOut [][]int64
	var err error
	if memo == nil {
		outs, bytesOut, err = ex.leaves(ctx, seg, chunks)
	} else {
		outs, bytesOut, err = ex.runChunks(ctx, seg, chunks, memo)
	}
	if err != nil {
		return err
	}
	if memo != nil {
		hits, reused := memo.Reused()
		rms[0].MemoMetrics = MemoMetrics{MemoHits: hits, MemoMisses: len(chunks) - hits, ReusedBytes: reused}
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
	return ex.exit(ctx, regions[n-1], last, outs, st, &rms[n-1])
}

// exit applies a segment's last exit to its chunk outputs, leaving the
// stream materialized (a split exit never ends a segment): a concat
// exit joins them in chunk order, any other runs the region's combiner
// (a single stage's own, a fragment's). The final region always
// combines: a single output stream must emerge.
func (ex *executor) exit(ctx context.Context, r *dataflow.Region, last bool, outs []string, st *stream, rm *RegionMetrics) error {
	if r.Exit == dataflow.ExitConcat && !last {
		*st = stream{data: strings.Join(outs, "")}
		rm.BytesOut = int64(len(st.data))
		return nil
	}
	// The region's synthesized combiner: the §3.5 k-way combine.
	_, span := obs.StartSpan(ctx, "combine")
	span.AttrInt("parts", int64(len(outs)))
	span.AttrInt("bytes", totalLen(outs))
	start := time.Now()
	combined, err := r.Combiner.CombineKTree(outs, 1)
	rm.CombineWall = time.Since(start)
	span.End()
	if err != nil {
		return fmt.Errorf("pipeline: stage %q combine: %w", r.Cmd.Spec(), err)
	}
	*st = stream{data: combined}
	rm.BytesOut = int64(len(combined))
	return nil
}

// runLocal is the default Leaves: runChunks without a memo.
func (ex *executor) runLocal(ctx context.Context, seg *Segment, chunks []string) ([]string, [][]int64, error) {
	return ex.runChunks(ctx, seg, chunks, nil)
}

// runChunks runs the segment on every chunk concurrently, at most
// ex.width chunks at a time. With a memo run, a chunk the memo holds is
// answered from it instead, and a run whose every chunk succeeded is
// committed; the span counts the hits, the misses and the input bytes
// the hits did not run.
func (ex *executor) runChunks(ctx context.Context, seg *Segment, chunks []string, memo *unix.MemoRun) ([]string, [][]int64, error) {
	_, span := obs.StartSpan(ctx, "chunks")
	span.AttrInt("n", int64(len(chunks)))
	defer span.End()
	outs := make([]string, len(chunks))
	bytesOut := make([][]int64, len(chunks))
	errs := make([]error, len(chunks))
	par.For(ex.width, len(chunks), func(i int) {
		if ctx.Err() != nil {
			return
		}
		if memo != nil {
			var hit bool
			if outs[i], bytesOut[i], hit = memo.Lookup(i, chunks[i]); hit {
				return
			}
		}
		outs[i], bytesOut[i], errs[i] = seg.Run(i, chunks[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if memo != nil {
		memo.Commit(chunks, outs, bytesOut)
		hits, reused := memo.Reused()
		span.AttrInt("memo_hits", int64(hits))
		span.AttrInt("memo_misses", int64(len(chunks)-hits))
		span.AttrInt("reused_bytes", reused)
	}
	return outs, bytesOut, nil
}
