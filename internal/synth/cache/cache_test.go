package cache

import (
	"os"
	"path/filepath"
	"testing"
)

// steer is a synthesis engine's steering values in key order: the
// budget (maxProductions, pairsPerShape, mutationIters, stagnationRounds,
// maxRounds), the seed, and the random-walk switch.
var steer = []any{5, 3, 3, 2, 6, int64(1), false}

func TestKeyCanonicalization(t *testing.T) {
	k1 := Key([]string{"wc", "-l"}, []byte{'\n'}, steer...)
	k2 := Key([]string{"wc", "-l"}, []byte{'\n'}, steer...)
	if k1 != k2 {
		t.Fatalf("same inputs produced different keys: %s vs %s", k1, k2)
	}
	// Every component must discriminate.
	if Key([]string{"wc", "-c"}, []byte{'\n'}, steer...) == k1 {
		t.Error("argv change did not change the key")
	}
	if Key([]string{"wc", "-l"}, []byte{'\n', ' '}, steer...) == k1 {
		t.Error("delimiter change did not change the key")
	}
	for i, v := range steer {
		changed := append([]any(nil), steer...)
		switch v := v.(type) {
		case int:
			changed[i] = v + 1
		case int64:
			changed[i] = v + 1
		case bool:
			changed[i] = !v
		}
		if Key([]string{"wc", "-l"}, []byte{'\n'}, changed...) == k1 {
			t.Errorf("changing steering value %d (%v) did not change the key", i, v)
		}
	}
	// Token boundaries must not be ambiguous: ["ab","c"] vs ["a","bc"].
	if Key([]string{"ab", "c"}, nil, steer...) == Key([]string{"a", "bc"}, nil, steer...) {
		t.Error("argv token boundaries are ambiguous in the key")
	}
}

func TestLRUEviction(t *testing.T) {
	l := NewLRU(2)
	l.Put("a", 1)
	l.Put("b", 2)
	if _, ok := l.Get("a"); !ok { // refresh a → b becomes LRU
		t.Fatal("a missing before eviction")
	}
	l.Put("c", 3)
	if _, ok := l.Get("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	if v, ok := l.Get("a"); !ok || v.(int) != 1 {
		t.Error("a should have survived eviction")
	}
	if v, ok := l.Get("c"); !ok || v.(int) != 3 {
		t.Error("c should be present")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{
		Spec:      "uniq -c",
		Argv:      []string{"uniq", "-c"},
		Delims:    "\n ",
		SpaceRec:  12440,
		Plausible: []string{"(stitch2 ' ' add first a b)"},
		Rounds:    3,
	}
	key := Key(e.Argv, []byte(e.Delims), steer...)
	if err := s.Put(key, e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("entry not found after Put")
	}
	if got.Spec != e.Spec || got.SpaceRec != e.SpaceRec ||
		len(got.Plausible) != 1 || got.Plausible[0] != e.Plausible[0] {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("unexpected hit for missing key")
	}
}

func TestStoreRejectsCorruptAndVersionSkew(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("bad"); ok {
		t.Error("corrupt entry should be a miss")
	}
	if err := os.WriteFile(filepath.Join(dir, "old.json"),
		[]byte(`{"version": 999, "spec": "wc -l"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("old"); ok {
		t.Error("version-skewed entry should be a miss")
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Hit()
	c.Hit()
	c.DiskHit()
	c.Miss()
	s := c.Snapshot()
	if s.Hits != 2 || s.DiskHits != 1 || s.Misses != 1 || s.Lookups() != 4 {
		t.Errorf("unexpected stats %+v", s)
	}
	d := s.Sub(Stats{Hits: 1})
	if d.Hits != 1 || d.Misses != 1 {
		t.Errorf("unexpected delta %+v", d)
	}
}
