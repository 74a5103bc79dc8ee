package dsl

import "testing"

// TestShards checks the partition invariant the parallel filter relies
// on: concatenating the shards reproduces the input exactly, for every
// shard-count shape including the degenerate ones.
func TestShards(t *testing.T) {
	cands := Enumerate(DefaultMaxProductions, []Delim{'\n', ' '})
	for _, n := range []int{-1, 0, 1, 2, 3, 7, 16, 64, len(cands), len(cands) + 5} {
		shards := Shards(cands, n)
		if n >= 1 && len(shards) > n {
			t.Errorf("Shards(_, %d) produced %d shards", n, len(shards))
		}
		i := 0
		for _, s := range shards {
			for _, c := range s {
				if c != cands[i] {
					t.Fatalf("Shards(_, %d): candidate %d out of order", n, i)
				}
				i++
			}
		}
		if i != len(cands) {
			t.Errorf("Shards(_, %d) covered %d of %d candidates", n, i, len(cands))
		}
	}
	if Shards[Candidate](nil, 4) != nil {
		t.Error("Shards(nil, 4) should be nil")
	}
}
