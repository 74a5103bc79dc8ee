package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"kumquat/internal/unix"
)

// Dump renders the optimized program deterministically for golden-file
// regression tests: nodes with their derived capabilities and output
// closures, regions with exits, fired rules and the stages they do not
// run, and the per-rule fire counters. Any accidental legality change —
// a capability probe drifting, a rule firing where it should not — shows
// up as a readable diff against the checked-in golden.
func (p *Program) Dump() string {
	var b strings.Builder
	g := p.Graph
	src := g.InputFile
	if src == "" {
		src = "<stdin>"
	}
	fmt.Fprintf(&b, "source %s\n", src)
	for id, n := range g.Nodes {
		var caps []string
		if n.Stage.Parallel {
			caps = append(caps, "parallel")
		}
		if n.Stage.Sequential {
			caps = append(caps, "sequential")
		}
		if unix.CanStream(n.Stage.Cmd) {
			caps = append(caps, "linemapper")
		}
		if unix.IsOrderInsensitive(n.Stage.Cmd) {
			caps = append(caps, "order-insensitive")
		}
		if n.Stage.StreamOutput {
			caps = append(caps, "stream-output")
		}
		fmt.Fprintf(&b, "n%d %q class=%s closure=%s [%s]\n", id, n.Stage.Spec, n.Class, n.Closure, strings.Join(caps, " "))
	}
	for i, r := range p.Regions {
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
		fmt.Fprintf(&b, "region R%d %s{%s} parallel=%v exit=%s rules=[%s]",
			i, kind, nodeList(r.Nodes), r.Parallel, exit, strings.Join(rules, " "))
		if len(r.Dead) > 0 {
			fmt.Fprintf(&b, " dead={%s}", nodeList(r.Dead))
		}
		b.WriteByte('\n')
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

// nodeList names node IDs as the dump prints them: "n0,n1".
func nodeList(ids []int) string {
	names := make([]string, len(ids))
	for j, id := range ids {
		names[j] = fmt.Sprintf("n%d", id)
	}
	return strings.Join(names, ",")
}
