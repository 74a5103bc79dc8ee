package dataflow

import (
	"fmt"
	"sort"
	"strings"
)

// Dump renders the optimized program deterministically for golden-file
// regression tests: nodes with their derived capabilities, edges with
// their closure metadata, regions with exits and fired rules, and the
// per-rule fire counters. Any accidental legality change — a capability
// probe drifting, a rule firing where it should not — shows up as a
// readable diff against the checked-in golden.
func (p *Program) Dump() string {
	var b strings.Builder
	g := p.Graph
	src := g.InputFile
	if src == "" {
		src = "<stdin>"
	}
	fmt.Fprintf(&b, "source %s\n", src)
	for _, n := range g.Nodes {
		var caps []string
		if n.Stage.Parallel {
			caps = append(caps, "parallel")
		}
		if n.Stage.Sequential {
			caps = append(caps, "sequential")
		}
		if n.LineMapper {
			caps = append(caps, "linemapper")
		}
		if n.OrderInsensitive {
			caps = append(caps, "order-insensitive")
		}
		if n.Stage.StreamOutput {
			caps = append(caps, "stream-output")
		}
		fmt.Fprintf(&b, "n%d %q class=%s [%s]\n", n.ID, n.Stage.Spec, n.Class, strings.Join(caps, " "))
	}
	for _, e := range g.Edges {
		from, to := fmt.Sprintf("n%d", e.From), fmt.Sprintf("n%d", e.To)
		if e.From < 0 {
			from = "source"
		}
		if e.To < 0 {
			to = "sink"
		}
		fmt.Fprintf(&b, "edge %s->%s closure=%s\n", from, to, e.Closure)
	}
	for i, r := range p.Regions {
		ids := make([]string, len(r.Nodes))
		for j, id := range r.Nodes {
			ids[j] = fmt.Sprintf("n%d", id)
		}
		kind := "single"
		if r.Fused {
			kind = "fused"
		}
		rules := make([]string, len(r.Rules))
		for j, rl := range r.Rules {
			rules[j] = string(rl)
		}
		exit := r.Exit.String()
		if i == len(p.Regions)-1 {
			exit = "final-" + exit
		}
		fmt.Fprintf(&b, "region R%d %s{%s} parallel=%v exit=%s rules=[%s]\n",
			i, kind, strings.Join(ids, ","), r.Parallel, exit, strings.Join(rules, " "))
	}
	rules := make([]string, 0, len(p.Fired))
	for r := range p.Fired {
		rules = append(rules, string(r))
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(&b, "fired %s=%d\n", r, p.Fired[Rule(r)])
	}
	return b.String()
}
