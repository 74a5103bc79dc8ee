package dsl

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// domainCorpus extends the in-place walks' corpus with the operand
// shapes the domain index's steps split on: digit runs, space- and
// tab-padded tables, unterminated streams and empty lines, and every
// delimiter leading, trailing and doubled.
var domainCorpus = func() []string {
	c := append([]string{}, inDomainCorpus...)
	c = append(c,
		"0", "42\n", "123\n456\n", "1\n2\n3\n", "9876543210",
		"      1 a\n      2 b\n", "   10 x y\n    2 z\n", "\t1\ta\n\t2\tb\n",
		"1 a\n2 b", "a b\n\nc d\n", "\n\n1 a\n", "1,2,3\n4,5,6\n", "1\t2\t3\n",
	)
	for _, d := range Delims {
		ds := string(d)
		c = append(c,
			ds+"1", "1"+ds, ds+ds+"1", "1"+ds+ds+"2", ds+"1"+ds+"2"+ds,
			ds+"a\n", "a"+ds+"\n", "1"+ds+ds+"\n", ds+ds+"\n", "a"+ds+"b"+ds+"\n",
		)
	}
	return c
}()

// domainPairs pairs every corpus string with itself, its successor and
// one more distant string, so each operand shape meets both operand
// positions and operands of other shapes.
func domainPairs() [][2]string {
	n := len(domainCorpus)
	var pairs [][2]string
	for i, y := range domainCorpus {
		pairs = append(pairs, [2]string{y, y}, [2]string{y, domainCorpus[(i+1)%n]},
			[2]string{domainCorpus[(7*i+3)%n], y})
	}
	return pairs
}

// spaces builds the 1-, 2-, 3- and 4-delimiter spaces once per test
// binary.
var spaces = sync.OnceValue(func() []*Space {
	var out []*Space
	for n := 1; n <= len(Delims); n++ {
		out = append(out, NewSpace(DefaultMaxProductions, Delims[:n]))
	}
	return out
})

// TestDomainIndexMatchesInDomain checks the index against the
// materializing reference for every operator of the 1-, 2-, 3- and
// 4-delimiter spaces on every corpus pair: the index says yes exactly
// when the reference admits both operands. The reference is computed
// once per (operator, string) and the pairs combine it.
func TestDomainIndexMatchesInDomain(t *testing.T) {
	env := &Env{}
	pairs := domainPairs()
	index := map[string]int{}
	for _, y := range domainCorpus {
		if _, ok := index[y]; !ok {
			index[y] = len(index)
		}
	}
	for _, sp := range spaces() {
		t.Run(fmt.Sprintf("space=%d", sp.Size.Total()), func(t *testing.T) {
			got := make([][]uint64, len(pairs))
			ws := sp.NewScratch()
			for i, p := range pairs {
				sp.Domain(ws, p[0], p[1])
				got[i] = append([]uint64(nil), ws.bits...)
			}
			ref := make([]bool, len(index))
			for k := 0; k < sp.Indexed(); k += 2 {
				op := sp.Cands[k].Op
				for y, i := range index {
					ref[i] = referenceInDomain(env, op, y)
				}
				for i, p := range pairs {
					ws.bits = got[i]
					want := ref[index[p[0]]] && ref[index[p[1]]]
					if ws.InDomain(k) != want || ws.InDomain(k+1) != want {
						t.Fatalf("%s on (%q, %q): index says %v/%v, reference %v",
							op, p[0], p[1], ws.InDomain(k), ws.InDomain(k+1), want)
					}
				}
			}
		})
	}
}

// FuzzDomainIndexMatchesInDomain: on arbitrary operand pairs the index
// answers what the reference does, for every operator of up to three
// productions over all four delimiters and for a window of 64
// operators of the large space picked per input.
func FuzzDomainIndexMatchesInDomain(f *testing.F) {
	pairs := domainPairs()
	for i, p := range pairs {
		f.Add(p[0], p[1], uint32(i*7919))
	}
	small := NewSpace(3, Delims)
	large := spaces()[2]
	f.Fuzz(func(t *testing.T, y1, y2 string, pick uint32) {
		env := &Env{}
		check := func(sp *Space, k int, ws *DomainScratch) {
			op := sp.Cands[k].Op
			want := referenceInDomain(env, op, y1) && referenceInDomain(env, op, y2)
			if ws.InDomain(k) != want {
				t.Fatalf("%s on (%q, %q): index says %v, reference %v", op, y1, y2, !want, want)
			}
		}
		ws := small.NewScratch()
		small.Domain(ws, y1, y2)
		for k := 0; k < small.Indexed(); k++ {
			check(small, k, ws)
		}
		ws = large.NewScratch()
		large.Domain(ws, y1, y2)
		start := int(pick) % large.Indexed()
		for k := start; k < start+64 && k < large.Indexed(); k++ {
			check(large, k, ws)
		}
	})
}

// decoder reads operators back from a space's trie alone: the path of
// steps from the operands to the node holding a bitmap slot, and the
// leaf position there.
type decoder struct {
	sp    *Space
	where map[int32][2]int // slot → node, leaf position
}

func newDecoder(sp *Space) decoder {
	dc := decoder{sp, map[int32][2]int{}}
	for n := range sp.nodes {
		for pos, s := range sp.nodes[n].leaf {
			if s >= 0 {
				dc.where[s] = [2]int{n, pos}
			}
		}
	}
	return dc
}

// slot renders the operator (or stitch2 child) filed under slot s,
// and returns the step below the operands its path starts with.
func (dc decoder) slot(s int32) (op string, root node) {
	w, ok := dc.where[s]
	if !ok {
		return "<no node>", node{}
	}
	out := []string{"add", "concat", "first", "second"}[w[1]]
	for n := int32(w[0]); n > 0; n = dc.sp.nodes[n].parent {
		root = dc.sp.nodes[n]
		d := Delim(root.d).String()
		switch root.step {
		case stepFront:
			out = "front " + d + " " + out
		case stepBack:
			out = "back " + d + " " + out
		case stepFuse:
			out = "fuse " + d + " " + out
		case stepLines:
			out = "stitch " + out
		case stepHeads:
			out = "offset " + d + " " + out
		}
	}
	return out, root
}

// TestDomainIndexLayout decodes every operator number of the 1-, 2-,
// 3- and 4-delimiter spaces back from the trie and checks it is
// Enumerate's operator at that position, so the index's numbering is
// Enumerate's order; stitch2 operators decode from their head and tail
// children.
func TestDomainIndexLayout(t *testing.T) {
	for _, sp := range spaces() {
		dc := newDecoder(sp)
		decoded := make([]string, sp.ops)
		for i := range decoded {
			decoded[i], _ = dc.slot(int32(i))
		}
		for _, g := range sp.pairs {
			head, hr := dc.slot(g.head)
			for _, p := range sp.pair[g.first:g.end] {
				tail, tr := dc.slot(p.tail)
				if hr.step != stepS2Head || tr.step != stepS2Tail || hr.d != tr.d {
					t.Fatalf("space %d: operator %d pairs a child of step %d with one of step %d", sp.Size.Total(), p.op, hr.step, tr.step)
				}
				decoded[p.op] = "stitch2 " + Delim(hr.d).String() + " " + head + " " + tail
			}
		}
		for i, got := range decoded {
			if want := sp.Cands[2*i].Op.String(); got != want {
				t.Fatalf("space %d: operator %d decodes as %q, Enumerate says %q", sp.Size.Total(), i, got, want)
			}
			if sp.Cands[2*i+1] != (Candidate{Op: sp.Cands[2*i].Op, Swap: true}) {
				t.Fatalf("space %d: candidate %d is %s, want operator %d swapped", sp.Size.Total(), 2*i+1, sp.Cands[2*i+1], i)
			}
		}
		if sp.Indexed()+4 != len(sp.Cands) {
			t.Errorf("space %d: index covers %d candidates, want all but the 4 RunOps of %d",
				sp.Size.Total(), sp.Indexed(), len(sp.Cands))
		}
	}
}

// TestDomainIndexConcurrent runs Domain on one space from several
// goroutines, each with its own scratch, and checks every answer
// against a sequential run (the space is read-only; -race in CI
// checks that nothing else is shared).
func TestDomainIndexConcurrent(t *testing.T) {
	sp := spaces()[2]
	pairs := domainPairs()
	want := make([][]uint64, len(pairs))
	ws := sp.NewScratch()
	for i, p := range pairs {
		sp.Domain(ws, p[0], p[1])
		want[i] = append([]uint64(nil), ws.bits...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := sp.NewScratch()
			for i := range pairs {
				p := pairs[(i+g*17)%len(pairs)]
				sp.Domain(ws, p[0], p[1])
				for w, word := range ws.bits {
					if word != want[(i+g*17)%len(pairs)][w] {
						t.Errorf("goroutine %d, pair (%q, %q): word %d differs", g, p[0], p[1], w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// countTable is a uniq -c style table of n lines, the operand shape
// that passes the most steps (fuse, stitch, stitch2 and offset all
// descend into it).
func countTable(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%7d word%d\n", i+1, i%17)
	}
	return b.String()
}

// TestDomainIndexAllocations pins a steady-state Domain call at zero
// allocations on every space, and states the reused workspace: the
// bitmap is one bit per operator plus one per stitch2 child leaf, and
// the set buffers grow to the largest operands' pieces (here two
// 100-line count tables).
func TestDomainIndexAllocations(t *testing.T) {
	y1, y2 := countTable(100), countTable(50)
	for i, sp := range spaces() {
		ws := sp.NewScratch()
		sp.Domain(ws, y1, y2)
		if n := testing.AllocsPerRun(20, func() { sp.Domain(ws, y1, y2) }); n != 0 {
			t.Errorf("space %d: Domain allocates %.1f times per call, want 0", sp.Size.Total(), n)
		}
		bitmap := 8 * len(ws.bits)
		sets := 0
		for _, s := range ws.sets {
			sets += 16 * cap(s)
		}
		if want := []int{184, 1736, 7176, 20312}[i]; bitmap != want {
			t.Errorf("space %d: bitmap is %d bytes, want %d", sp.Size.Total(), bitmap, want)
		}
		t.Logf("space %d: %d operators, %d trie nodes, depth %d; workspace %d B bitmap + %d B sets",
			sp.Size.Total(), sp.ops, len(sp.nodes), sp.depth, bitmap, sets)
	}
}

var domainSink bool

// BenchmarkDomainIndex times one Domain call per space against the
// per-candidate check it replaces (InDomain on both operands for every
// indexed candidate), on two operand shapes: word lines, the commonest
// command output, and count tables, which pass the most steps. The
// ratio of the two is the candidate count above which the index pays:
// the synthesizer's cutoffs are chosen from it.
func BenchmarkDomainIndex(b *testing.B) {
	env := &Env{}
	shapes := []struct{ name, y1, y2 string }{
		{"words", "light\ndark\nlight\nstone\nriver\n", "dark\nwater\nlight\n"},
		{"table", countTable(12), countTable(8)},
	}
	for _, sp := range spaces()[:3] {
		for _, sh := range shapes {
			name := fmt.Sprintf("space=%d/%s", sp.Size.Total(), sh.name)
			b.Run(name+"/index", func(b *testing.B) {
				ws := sp.NewScratch()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sp.Domain(ws, sh.y1, sh.y2)
				}
			})
			b.Run(name+"/direct", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, c := range sp.Cands[:sp.Indexed()] {
						domainSink = c.InDomain(env, sh.y1, sh.y2)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sp.Indexed()), "ns/cand")
			})
		}
	}
}
