package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"kumquat"
	"kumquat/internal/dsl"
	"kumquat/internal/synth"
)

// perPipelineString renders Table 3's parenthesized per-pipeline counts,
// e.g. "5/8 (0/1, 3/3, 2/2, 0/1, 0/1)".
func perPipelineString(r *ScriptResult) string {
	parts := make([]string, len(r.PerPipeline))
	for i, c := range r.PerPipeline {
		parts[i] = fmt.Sprintf("%d/%d", c.Parallelized, c.Total)
	}
	return fmt.Sprintf("%d/%d (%s)", r.Parallelized, r.Total, strings.Join(parts, ", "))
}

func eliminatedString(r *ScriptResult) string {
	parts := make([]string, len(r.PerPipeline))
	for i, c := range r.PerPipeline {
		parts[i] = fmt.Sprintf("%d", c.Eliminated)
	}
	return fmt.Sprintf("%d (%s)", r.Eliminated, strings.Join(parts, ", "))
}

func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// WriteTable3 renders the parallelized/eliminated counts for every script
// (paper Table 3), with the paper's published numbers alongside.
func WriteTable3(w io.Writer, results []*ScriptResult) {
	fmt.Fprintf(w, "Table 3: pipeline commands parallelized with synthesized combiners\n")
	fmt.Fprintf(w, "%-14s %-22s %-28s %-12s %-10s %-10s\n",
		"Benchmark", "Script", "Parallelized", "Eliminated", "Paper k/n", "Paper elim")
	totalPar, totalAll, totalElim := 0, 0, 0
	paperPar, paperElim := 0, 0
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %-22s %-28s %-12s %d/%-8d %d\n",
			r.Spec.Suite, r.Spec.Name, perPipelineString(r), eliminatedString(r),
			r.Spec.PaperParallelized, r.Spec.PaperStages, r.Spec.PaperEliminated)
		totalPar += r.Parallelized
		totalAll += r.Total
		totalElim += r.Eliminated
		paperPar += r.Spec.PaperParallelized
		paperElim += r.Spec.PaperEliminated
	}
	fmt.Fprintf(w, "Total: %d/%d parallelized (paper: %d/427), %d eliminated (paper: %d)\n",
		totalPar, totalAll, paperPar, totalElim, paperElim)
}

// WriteTable4 renders T_orig / u1 / u16 / T16 for all scripts (paper
// Table 4). kMax selects the "16" column (the largest measured k).
func WriteTable4(w io.Writer, results []*ScriptResult, kMax int) {
	fmt.Fprintf(w, "Table 4: performance of new pipelines vs original scripts (k=%d)\n", kMax)
	fmt.Fprintf(w, "%-14s %-22s %14s %12s %16s %16s\n",
		"Benchmark", "Script", "T_orig", "u1", fmt.Sprintf("u%d", kMax), fmt.Sprintf("T%d", kMax))
	for _, r := range results {
		u1 := r.U[1]
		fmt.Fprintf(w, "%-14s %-22s %8s (%.1fx) %12s %8s (%.1fx) %8s (%.1fx)\n",
			r.Spec.Suite, r.Spec.Name,
			seconds(r.TOrig), Speedup(u1, r.TOrig),
			seconds(u1),
			seconds(r.U[kMax]), Speedup(u1, r.U[kMax]),
			seconds(r.T[kMax]), Speedup(u1, r.T[kMax]))
	}
	writeOrigSummary(w, results)
}

// origMarginPct is the band around u1, in percent, inside which Table 4's
// summary counts T_orig as level: a cell's timing moves by about this much
// between runs of the same commit, so the sign of a nearer difference is
// noise.
const origMarginPct = 10

// writeOrigSummary prints one line under Table 4's rows: the median
// u1/T_orig, and how many scripts run T_orig more than origMarginPct
// slower than u1, more than origMarginPct faster, or within it.
func writeOrigSummary(w io.Writer, results []*ScriptResult) {
	if len(results) == 0 {
		return
	}
	ratios := make([]float64, len(results))
	slower, faster := 0, 0
	for i, r := range results {
		ratios[i] = Speedup(r.U[1], r.TOrig)
		switch d := 100 * float64(r.TOrig-r.U[1]) / float64(r.U[1]); {
		case d > origMarginPct:
			slower++
		case d < -origMarginPct:
			faster++
		}
	}
	slices.Sort(ratios)
	const m = origMarginPct
	fmt.Fprintf(w, "T_orig vs u1: median u1/T_orig %.2fx; T_orig >%d%% slower on %d, >%d%% faster on %d, within ±%d%% on %d of %d scripts\n",
		ratios[len(ratios)/2], m, slower, m, faster, m, len(results)-slower-faster, len(results))
}

// WriteSweep renders the u_k (optimized=false; paper Table 5) or T_k
// (optimized=true; paper Table 6) speedup sweep.
func WriteSweep(w io.Writer, results []*ScriptResult, ks []int, optimized bool) {
	name, label := "Table 5: unoptimized parallel execution (u_k)", "u"
	pick := func(r *ScriptResult, k int) time.Duration { return r.U[k] }
	if optimized {
		name, label = "Table 6: optimized parallel execution (T_k)", "T"
		pick = func(r *ScriptResult, k int) time.Duration { return r.T[k] }
	}
	fmt.Fprintln(w, name)
	fmt.Fprintf(w, "%-14s %-22s", "Benchmark", "Script")
	for _, k := range ks {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%s%d", label, k))
	}
	fmt.Fprintln(w)
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %-22s", r.Spec.Suite, r.Spec.Name)
		u1 := r.U[1]
		for _, k := range ks {
			d := pick(r, k)
			fmt.Fprintf(w, " %8s(%.1fx)", seconds(d), Speedup(u1, d))
		}
		fmt.Fprintln(w)
	}
}

// WriteTable7 renders the long-running subset (paper Table 7: scripts with
// u1 at least minSerial).
func WriteTable7(w io.Writer, results []*ScriptResult, ks []int, minSerial time.Duration) {
	fmt.Fprintf(w, "Table 7: scripts with serial time >= %s\n", minSerial)
	var subset []*ScriptResult
	for _, r := range results {
		if r.U[1] >= minSerial {
			subset = append(subset, r)
		}
	}
	kMax := ks[len(ks)-1]
	WriteTable4(w, subset, kMax)
}

// WriteTable1 renders the two slowest (by u1) scripts per suite, the
// paper's Table 1 selection rule.
func WriteTable1(w io.Writer, results []*ScriptResult, kMax int) {
	fmt.Fprintln(w, "Table 1: two longest-running scripts per benchmark suite")
	bySuite := map[string][]*ScriptResult{}
	var suites []string
	for _, r := range results {
		if len(bySuite[r.Spec.Suite]) == 0 {
			suites = append(suites, r.Spec.Suite)
		}
		bySuite[r.Spec.Suite] = append(bySuite[r.Spec.Suite], r)
	}
	var chosen []*ScriptResult
	for _, s := range suites {
		rs := bySuite[s]
		sort.Slice(rs, func(i, j int) bool { return rs[i].U[1] > rs[j].U[1] })
		n := 2
		if len(rs) < n {
			n = len(rs)
		}
		chosen = append(chosen, rs[:n]...)
	}
	fmt.Fprintf(w, "%-14s %-22s %-22s %-10s\n", "Benchmark", "Script", "Parallelized", "Eliminated")
	for _, r := range chosen {
		fmt.Fprintf(w, "%-14s %-22s %-22s %-10s\n",
			r.Spec.Suite, r.Spec.Name, perPipelineString(r), eliminatedString(r))
	}
	WriteTable4(w, chosen, kMax)
}

// CombinerLabel maps a candidate to its Table 8 histogram bucket, grouping
// merge flags as merge(*).
func CombinerLabel(c dsl.Candidate) string {
	args := "a b"
	if c.Swap {
		args = "b a"
	}
	switch c.Op.(type) {
	case dsl.Concat:
		return "(concat " + args + ")"
	case dsl.Rerun:
		return "(rerun " + args + ")"
	case dsl.Merge:
		return "(merge(*) " + args + ")"
	default:
		return c.String()
	}
}

// Table8Row is one histogram bucket.
type Table8Row struct {
	Count int
	Label string
}

// Table8 builds the synthesized-combiner histogram over the unique
// benchmark commands (paper Table 8).
func Table8(ctx context.Context, sys *kumquat.System) []Table8Row {
	counts := map[string]int{}
	for _, spec := range UniqueCommands() {
		res, err := sys.Synthesize(ctx, spec)
		if err != nil || res == nil {
			continue
		}
		for _, c := range res.Plausible {
			counts[CombinerLabel(c)]++
		}
	}
	rows := make([]Table8Row, 0, len(counts))
	for label, n := range counts {
		rows = append(rows, Table8Row{Count: n, Label: label})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Label < rows[j].Label
	})
	return rows
}

// WriteTable8 renders the combiner histogram.
func WriteTable8(ctx context.Context, w io.Writer, sys *kumquat.System) {
	fmt.Fprintln(w, "Table 8: combiners synthesized across all benchmark commands")
	fmt.Fprintf(w, "%6s  %s\n", "Count", "Synthesized plausible combiner")
	for _, row := range Table8(ctx, sys) {
		fmt.Fprintf(w, "%6d  %s\n", row.Count, row.Label)
	}
}

// WriteTable9 renders the unsupported commands and the reason synthesis
// rejected each (paper Table 9).
func WriteTable9(ctx context.Context, w io.Writer, sys *kumquat.System) {
	fmt.Fprintln(w, "Table 9: unsupported commands")
	fmt.Fprintf(w, "%-40s %s\n", "Command", "Reason unsupported")
	for _, spec := range UniqueCommands() {
		res, _ := sys.Synthesize(ctx, spec)
		if res == nil || res.Err == nil {
			continue
		}
		reason := res.Err.Error()
		switch {
		case errors.Is(res.Err, synth.ErrNoCombiner):
			reason = "no combiner g satisfies f(x1++x2) = g(f(x1),f(x2)) for all streams"
		case errors.Is(res.Err, synth.ErrNoOutputs):
			reason = "generated inputs never produced nonempty outputs"
		case errors.Is(res.Err, synth.ErrMultiInput):
			reason = "processes multiple input streams (footnote 5)"
		case errors.Is(res.Err, synth.ErrNonStream):
			reason = "does not process a data stream (footnote 5)"
		}
		fmt.Fprintf(w, "%-40s %s\n", res.Spec, reason)
	}
}

// WriteTable10 renders per-command synthesis results: search-space
// breakdown, wall-clock time, and the plausible combiners (paper Table 10).
func WriteTable10(ctx context.Context, w io.Writer, sys *kumquat.System) {
	fmt.Fprintln(w, "Table 10: synthesis results for unique command/flag combinations")
	fmt.Fprintf(w, "%-44s %-26s %10s  %s\n", "Command", "Search space", "Time", "Plausible combiners")
	for _, spec := range UniqueCommands() {
		res, _ := sys.Synthesize(ctx, spec)
		if res == nil {
			continue
		}
		if res.Err != nil {
			fmt.Fprintf(w, "%-44s %-26s %10s  unsupported: %v\n",
				trim(spec, 44), spaceString(res.Space), fmtDuration(res.Duration), res.Err)
			continue
		}
		fmt.Fprintf(w, "%-44s %-26s %10s  %s\n",
			trim(spec, 44), spaceString(res.Space), fmtDuration(res.Duration),
			strings.Join(res.DisplayPlausible(), ", "))
	}
}

func spaceString(s dsl.SpaceSize) string {
	if s.Total() == 0 {
		return "-"
	}
	return fmt.Sprintf("%d (=%d+%d+%d)", s.Total(), s.Rec, s.Struct, s.Run)
}

func fmtDuration(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
