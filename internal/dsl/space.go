package dsl

import (
	"fmt"
	"strings"

	"kumquat/internal/textio"
)

// Space is one enumerated candidate search space, AllCandidates(n) of
// Algorithm 1 for one delimiter set, together with its domain index: a
// trie over the grammar's domain steps that answers the legality-domain
// question for every RecOp and StructOp of the space in one walk
// (Domain). The index is derived from the enumerated operators
// themselves, so its numbering is Enumerate's order by construction.
// A Space is read-only after NewSpace and safe for concurrent use;
// each goroutine calling Domain brings its own DomainScratch.
type Space struct {
	// Cands is Enumerate's output, clipped to its length so an append
	// copies instead of writing into the shared array.
	Cands []Candidate
	// keyed is Cands followed by the keyed merges, in the same array
	// (WithKeyMerges).
	keyed []Candidate
	// Size is the space's per-class breakdown.
	Size SpaceSize

	ops   int     // indexed operators: operator i is candidates 2i and 2i+1
	slots int     // bitmap bits: one per operator, then the stitch2 child leaves
	depth int     // deepest node below the operands
	nodes []node  // the trie; nodes[0] is the operand pair {y1, y2}
	kids  []int32 // node n's children are kids[n.first:n.end]
	pairs []pairGroup
	pair  []pairOp
}

// step is how a trie node's operand set derives from its parent's.
// Every rec/struct legality domain is a conjunction over pieces of the
// operand (Definition B.1), so a wrapper's domain over a set S is its
// own condition on every string of S and the child's domain over the
// pieces it hands down:
//
//	front d   S → every string with a leading d stripped
//	back d    S → every string with a trailing d stripped
//	fuse d    S → every d-separated element (each string needs a d)
//	lines     S → every line (each string a newline-terminated stream)
//	heads d   S → the first fields of the nonempty lines (each string
//	              needs one nonempty line; every one must split at d)
//	s2head d  S → the first field of every line (every line must split)
//	s2tail d  S → the rest of every line after its first field
//
// A step that fails prunes the node's whole subtree.
type step uint8

const (
	stepOperands step = iota
	stepFront
	stepBack
	stepFuse
	stepLines
	stepHeads
	stepS2Head
	stepS2Tail
)

// Leaf positions within a node: the four productions of recExact[1].
const (
	leafAdd = iota
	leafConcat
	leafFirst
	leafSecond
	numLeaves
)

// node is one trie node: a path of domain steps from the operands.
// leaf[i] is the bitmap slot of the operator ending in leaf i at this
// node's path, -1 when no operator of the space does. Nodes hold no
// pointers, so the garbage collector never scans the trie.
type node struct {
	step       step
	d          byte
	depth      uint8 // height of the subtree below this node
	parent     int32
	leaf       [numLeaves]int32
	first, end int32 // children, in Space.kids
}

// pairGroup lists the stitch2 operators whose head child ends at slot
// head: pair[first:end] holds each one's operator number and tail
// child slot. An operator's bit is the product of its two child bits.
type pairGroup struct {
	head       int32
	first, end int32
}

type pairOp struct {
	op, tail int32
}

// NewSpace enumerates a candidate space and builds its domain index.
// The keyed merges of the same delimiters follow the candidates in
// their array, out of the space's reach, for WithKeyMerges.
func NewSpace(maxProductions int, delims []Delim) *Space {
	keyed := KeyMerges(delims)
	cands := enumerate(maxProductions, delims, len(keyed))
	n := len(cands)
	cands = append(cands, keyed...)
	sp := &Space{Cands: cands[:n:n], keyed: cands[:len(cands):len(cands)], Size: Measure(cands[:n])}
	sp.buildIndex()
	return sp
}

// WithKeyMerges returns the space of a pipeline fragment's spec over
// the same delimiters: sp's candidates, then the keyed merges
// (KeyMerges) after its RunOps. It shares sp's candidate array and
// domain index, which covers only the candidates before the RunOps, so
// it enumerates, copies and indexes nothing.
func (sp *Space) WithKeyMerges() *Space {
	f := *sp
	f.Cands = sp.keyed
	f.Size.Run += len(sp.keyed) - len(sp.Cands)
	return &f
}

// Indexed is the number of leading candidates the domain index covers:
// every RecOp and StructOp candidate, in both argument orders. The
// RunOp candidates after them (rerun, merge, the keyed merges) keep
// their per-candidate InDomain, because a merge's domain needs the Env.
func (sp *Space) Indexed() int { return 2 * sp.ops }

// buildIndex derives the trie from the enumerated operators: each
// operator's position in the trie is the chain of domain steps its
// constructors apply, so walking the trie answers every operator in
// Enumerate's numbering. It panics if Enumerate's layout is not the
// one the index assumes (each operator twice, unswapped first, RunOps
// last) — a programming error, not an input error.
func (sp *Space) buildIndex() {
	for k := 0; k < len(sp.Cands) && sp.Cands[k].Class() != RunOpClass; k += 2 {
		if sp.Cands[k].Swap || k+1 == len(sp.Cands) || !sp.Cands[k+1].Swap {
			badLayout("candidate %d (%s) is not an operator's unswapped half", k, sp.Cands[k])
		}
		sp.ops++
	}
	for k := sp.Indexed(); k < len(sp.Cands); k++ {
		if sp.Cands[k].Class() != RunOpClass {
			badLayout("candidate %d (%s) follows the RunOps", k, sp.Cands[k])
		}
	}

	// next[n][(s-1)*4+i] is node n's child by step s on Delims[i]: the
	// wrappers (front, back, fuse) below any node, and the structured
	// roots (lines, heads, s2head, s2tail) below the operands only.
	// Build time only; the trie needs about one node per four operators.
	const wrap = 3 * 4
	sp.nodes = make([]node, 0, sp.ops/4+64)
	next := make([][wrap]int32, 0, cap(sp.nodes))
	var roots [4 * 4]int32
	grow := func(s step, d byte, parent int32) int32 {
		sp.nodes = append(sp.nodes, node{step: s, d: d, parent: parent, leaf: [numLeaves]int32{-1, -1, -1, -1}})
		next = append(next, [wrap]int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1})
		return int32(len(sp.nodes) - 1)
	}
	walkTo := func(n int32, s step, d byte) int32 {
		if s >= stepLines {
			e := &roots[(int(s-stepLines))*4+delimIndex(d)]
			if *e < 0 {
				*e = grow(s, d, n)
			}
			return *e
		}
		i := (int(s)-1)*4 + delimIndex(d)
		if next[n][i] < 0 {
			c := grow(s, d, n) // grows next: index it again after
			next[n][i] = c
		}
		return next[n][i]
	}
	// leafOf walks a RecOp's wrappers down from node n and returns the
	// node and leaf position its leaf production ends at.
	leafOf := func(n int32, op Op) (int32, int) {
		for {
			switch o := op.(type) {
			case Front:
				n, op = walkTo(n, stepFront, byte(o.D)), o.B
			case Back:
				n, op = walkTo(n, stepBack, byte(o.D)), o.B
			case Fuse:
				n, op = walkTo(n, stepFuse, byte(o.D)), o.B
			case Add:
				return n, leafAdd
			case Concat:
				return n, leafConcat
			case First:
				return n, leafFirst
			case Second:
				return n, leafSecond
			default:
				badLayout("%s is not a RecOp", op)
			}
		}
	}
	for i := range roots {
		roots[i] = -1
	}
	grow(stepOperands, 0, -1)

	sp.slots = sp.ops
	// Stitch2 child leaves get slots past the operators, one per
	// (node, leaf) however many operators share it.
	slotOf := func(n int32, pos int) int32 {
		if s := sp.nodes[n].leaf[pos]; s >= 0 {
			return s
		}
		s := int32(sp.slots)
		sp.slots++
		sp.nodes[n].leaf[pos] = s
		return s
	}
	type stitch2 struct{ op, head, tail int32 }
	var s2 []stitch2
	for i := 0; i < sp.ops; i++ {
		var n int32
		var pos int
		switch o := sp.Cands[2*i].Op.(type) {
		case Stitch:
			n, pos = leafOf(walkTo(0, stepLines, '\n'), o.B)
		case Offset:
			n, pos = leafOf(walkTo(0, stepHeads, byte(o.D)), o.B)
		case Stitch2:
			h := slotOf(leafOf(walkTo(0, stepS2Head, byte(o.D)), o.B1))
			t := slotOf(leafOf(walkTo(0, stepS2Tail, byte(o.D)), o.B2))
			s2 = append(s2, stitch2{int32(i), h, t})
			continue
		default:
			n, pos = leafOf(0, o)
		}
		if prev := sp.nodes[n].leaf[pos]; prev >= 0 {
			badLayout("operator %d (%s) repeats operator %d", i, sp.Cands[2*i].Op, prev)
		}
		sp.nodes[n].leaf[pos] = int32(i)
	}
	// Group the stitch2 operators by head slot (a counting sort over the
	// head slots, which lie in [ops, slots)).
	at := make([]int32, sp.slots-sp.ops+1)
	for _, p := range s2 {
		at[p.head-int32(sp.ops)+1]++
	}
	for h := 1; h < len(at); h++ {
		if at[h] > 0 {
			sp.pairs = append(sp.pairs, pairGroup{head: int32(sp.ops + h - 1), first: at[h-1], end: at[h-1] + at[h]})
		}
		at[h] += at[h-1]
	}
	sp.pair = make([]pairOp, len(s2))
	for _, p := range s2 {
		j := &at[p.head-int32(sp.ops)]
		sp.pair[*j] = pairOp{op: p.op, tail: p.tail}
		*j++
	}

	// Every node's children lie contiguously in kids, in step order.
	sp.kids = make([]int32, 0, len(sp.nodes)-1)
	for n := range sp.nodes {
		sp.nodes[n].first = int32(len(sp.kids))
		for _, c := range next[n] {
			if c >= 0 {
				sp.kids = append(sp.kids, c)
			}
		}
		if n == 0 {
			for _, c := range roots {
				if c >= 0 {
					sp.kids = append(sp.kids, c)
				}
			}
		}
		sp.nodes[n].end = int32(len(sp.kids))
	}
	for n := len(sp.nodes) - 1; n > 0; n-- {
		p := &sp.nodes[sp.nodes[n].parent]
		p.depth = max(p.depth, 1+sp.nodes[n].depth)
	}
	sp.depth = int(sp.nodes[0].depth)
}

// badLayout reports an enumeration the index cannot lay out: a
// programming error in Enumerate or the index, never an input error.
func badLayout(format string, args ...any) {
	panic(fmt.Sprintf("dsl: domain index: "+format, args...))
}

// delimIndex is d's position in Delims.
func delimIndex(d byte) int {
	switch d {
	case '\n':
		return 0
	case '\t':
		return 1
	case ' ':
		return 2
	case ',':
		return 3
	}
	panic(fmt.Sprintf("dsl: domain index: %q is not a DSL delimiter", d))
}

// DomainScratch is the reused workspace of Space.Domain: the answer
// bitmap (one bit per indexed operator, then one per stitch2 child
// leaf) and one operand-set buffer per trie depth. The buffers grow to
// the largest operands seen and are then reused, so a steady-state
// Domain call allocates nothing. A scratch belongs to one space and
// one goroutine at a time; after Domain returns, any number of
// goroutines may read it with InDomain.
type DomainScratch struct {
	bits []uint64
	sets [][]string
}

// NewScratch returns a workspace for Domain calls on this space.
func (sp *Space) NewScratch() *DomainScratch {
	return &DomainScratch{
		bits: make([]uint64, (sp.slots+63)/64),
		sets: make([][]string, sp.depth+1),
	}
}

// InDomain reports candidate k's answer from the last Domain call:
// whether both operands lie in the legality domain of its operator.
// k must be below the space's Indexed().
func (ws *DomainScratch) InDomain(k int) bool {
	op := k >> 1
	return ws.bits[op>>6]&(1<<(op&63)) != 0
}

func (ws *DomainScratch) set(slot int32) { ws.bits[slot>>6] |= 1 << (slot & 63) }

func (ws *DomainScratch) has(slot int32) bool { return ws.bits[slot>>6]&(1<<(slot&63)) != 0 }

// Domain answers op.InDomain(y1) && op.InDomain(y2) for every indexed
// operator of the space at once, into ws (read it with InDomain). It
// walks the trie once from the operand pair: each node derives its
// operand set from its parent's by its step, a step that fails skips
// the node's subtree, and each leaf production reached sets its
// operator's bit when the set lies in its domain (add: every string
// all digits; concat, first, second: always). A stitch2 operator's
// bit is the product of its head and tail children's bits.
func (sp *Space) Domain(ws *DomainScratch, y1, y2 string) {
	clear(ws.bits)
	ws.sets[0] = append(ws.sets[0][:0], y1, y2)
	sp.visit(ws, 0, 0)
	for _, g := range sp.pairs {
		if !ws.has(g.head) {
			continue
		}
		for _, p := range sp.pair[g.first:g.end] {
			if ws.has(p.tail) {
				ws.set(p.op)
			}
		}
	}
}

// visit sets the leaf bits of node n, whose operand set is
// ws.sets[depth], and descends into every child whose step succeeds.
func (sp *Space) visit(ws *DomainScratch, n int32, depth int) {
	nd := &sp.nodes[n]
	set := ws.sets[depth]
	if s := nd.leaf[leafAdd]; s >= 0 && allDigits(set) {
		ws.set(s)
	}
	for _, s := range nd.leaf[leafConcat:] {
		if s >= 0 {
			ws.set(s)
		}
	}
	for _, c := range sp.kids[nd.first:nd.end] {
		next, ok := sp.nodes[c].apply(set, ws.sets[depth+1][:0])
		ws.sets[depth+1] = next
		if ok {
			sp.visit(ws, c, depth+1)
		}
	}
}

func allDigits(set []string) bool {
	for _, s := range set {
		if !textio.AllDigits(s) {
			return false
		}
	}
	return true
}

// apply derives node nd's operand set from its parent's set into out;
// ok is false when some string of set lies outside the step's domain.
func (nd *node) apply(set, out []string) ([]string, bool) {
	d := nd.d
	switch nd.step {
	case stepFront:
		for _, s := range set {
			if len(s) == 0 || s[0] != d {
				return out, false
			}
			out = append(out, s[1:])
		}
	case stepBack:
		for _, s := range set {
			if len(s) == 0 || s[len(s)-1] != d {
				return out, false
			}
			out = append(out, s[:len(s)-1])
		}
	case stepFuse:
		for _, s := range set {
			i := strings.IndexByte(s, d)
			if i < 0 {
				return out, false // one element; fuse needs at least two
			}
			for ; i >= 0; i = strings.IndexByte(s, d) {
				out = append(out, s[:i])
				s = s[i+1:]
			}
			out = append(out, s)
		}
	case stepLines, stepHeads, stepS2Head, stepS2Tail:
		for _, s := range set {
			if !textio.IsStream(s) {
				return out, false
			}
			any := false
			for rest := s; rest != ""; {
				var line string
				line, rest, _ = textio.SplitFirstLine(rest)
				if nd.step == stepLines {
					out = append(out, line)
					continue
				}
				if line == "" && nd.step == stepHeads {
					continue
				}
				_, head, tail, ok := lineFields(Delim(d), line)
				if !ok {
					return out, false
				}
				if nd.step == stepS2Tail {
					out = append(out, tail)
				} else {
					out = append(out, head)
				}
				any = true
			}
			if nd.step == stepHeads && !any {
				return out, false
			}
		}
	}
	return out, true
}
