package dsl

// DefaultMaxProductions bounds candidate combiner ASTs at five operator
// productions (|g| ≤ 7 in Definition 3.6 terms: the paper's §2 "seven or
// fewer nodes"). With this bound, both argument orders, and per-command
// delimiter sets of size 1, 2 or 3, the enumeration reproduces the paper's
// Table 10 search-space sizes exactly:
//
//	1 delim  →   968 RecOp +  1728 StructOp + 4 RunOp =   2700
//	2 delims → 12440 RecOp + 13960 StructOp + 4 RunOp =  26404
//	3 delims → 59048 RecOp + 51392 StructOp + 4 RunOp = 110444
const DefaultMaxProductions = 5

// enumerateOps generates the RecOp and StructOp operator trees with at most
// maxProductions productions over the given delimiter set. RecOps precede
// StructOps in the result, each sorted by increasing production count.
func enumerateOps(maxProductions int, delims []Delim) (recOps, structOps []Op) {
	if maxProductions < 1 {
		return nil, nil
	}
	// recExact[p] holds RecOp trees with exactly p productions.
	recExact := make([][]Op, maxProductions+1)
	recExact[1] = []Op{Add{}, Concat{}, First{}, Second{}}
	for p := 2; p <= maxProductions; p++ {
		for _, d := range delims {
			for _, b := range recExact[p-1] {
				recExact[p] = append(recExact[p], Front{D: d, B: b}, Back{D: d, B: b}, Fuse{D: d, B: b})
			}
		}
	}
	for p := 1; p <= maxProductions; p++ {
		recOps = append(recOps, recExact[p]...)
	}
	// StructOps: stitch (no delimiter choice), stitch2 and offset (with).
	for p := 2; p <= maxProductions; p++ {
		for _, b := range recExact[p-1] {
			structOps = append(structOps, Stitch{B: b})
		}
	}
	for p := 2; p <= maxProductions; p++ {
		for _, d := range delims {
			for _, b := range recExact[p-1] {
				structOps = append(structOps, Offset{D: d, B: b})
			}
		}
	}
	for p := 3; p <= maxProductions; p++ {
		for _, d := range delims {
			for p1 := 1; p1 <= p-2; p1++ {
				p2 := p - 1 - p1
				for _, b1 := range recExact[p1] {
					for _, b2 := range recExact[p2] {
						structOps = append(structOps, Stitch2{D: d, B1: b1, B2: b2})
					}
				}
			}
		}
	}
	return recOps, structOps
}

// Enumerate generates the full candidate search space: every RecOp and
// StructOp tree in both argument orders, plus the four RunOp candidates
// (rerun and merge, each in both orders). This is AllCandidates(n) from
// Algorithm 1.
func Enumerate(maxProductions int, delims []Delim) []Candidate {
	return enumerate(maxProductions, delims, 0)
}

// enumerate is Enumerate into a slice with room for spare more
// candidates after them.
func enumerate(maxProductions int, delims []Delim, spare int) []Candidate {
	recOps, structOps := enumerateOps(maxProductions, delims)
	out := make([]Candidate, 0, 2*(len(recOps)+len(structOps))+4+spare)
	appendBoth := func(ops []Op) {
		for _, op := range ops {
			out = append(out, Candidate{Op: op}, Candidate{Op: op, Swap: true})
		}
	}
	appendBoth(recOps)
	appendBoth(structOps)
	appendBoth([]Op{Rerun{}, Merge{}})
	return out
}

// KeyMerges enumerates the keyed merges a fragment's space adds: one
// per seam operator over leaf productions — (stitch b), and
// (stitch2 d b1 b2) for each delimiter — in one argument order only, as
// Swap is a no-op for them. That is 4 + 16·|delims| candidates, all
// RunOps.
func KeyMerges(delims []Delim) []Candidate {
	leaves := []Op{Add{}, Concat{}, First{}, Second{}}
	var out []Candidate
	for _, b := range leaves {
		out = append(out, Candidate{Op: KeyMerge{J: Stitch{B: b}}})
	}
	for _, d := range delims {
		for _, b1 := range leaves {
			for _, b2 := range leaves {
				out = append(out, Candidate{Op: KeyMerge{J: Stitch2{D: d, B1: b1, B2: b2}}})
			}
		}
	}
	return out
}

// SpaceSize describes a search space's per-class candidate counts, the
// triple Table 10 reports as "total (= rec + struct + run)".
type SpaceSize struct {
	Rec, Struct, Run int
}

// Total is the full candidate count.
func (s SpaceSize) Total() int { return s.Rec + s.Struct + s.Run }

// Measure computes the per-class breakdown of a candidate set.
func Measure(cands []Candidate) SpaceSize {
	var s SpaceSize
	for _, c := range cands {
		switch c.Class() {
		case RecOpClass:
			s.Rec++
		case StructOpClass:
			s.Struct++
		default:
			s.Run++
		}
	}
	return s
}
