// Package cache provides the combiner cache backing synth.Engine: an
// in-memory LRU for hot spec texts, an optional on-disk store that
// persists synthesis results across processes, and the canonical cache-key
// derivation over normalized argv, delimiter set and the values that steer
// synthesis.
//
// The package is deliberately free of synthesis types: the engine converts
// its results to and from the serializable Entry form, so cache stays a
// leaf package with no import cycle back into synth or dsl.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// EntryVersion is the on-disk format version; Store.Get rejects entries
// written by an incompatible format as misses. It also moves when the
// synthesizer's verdict for a key changes, so stale verdicts miss: 2 is
// numeric sort orderings drawing signed integers (sort -un's merge), 3
// is fragment specs searching the keyed merges (sort | uniq -c) and
// merging under their last sort member's flags.
const EntryVersion = 3

// DefaultCapacity is the in-memory LRU capacity of every synthesis
// engine (the synth package's default budget) and of NewLRU(0). 512
// specs comfortably covers the paper's 121 distinct benchmark commands
// with room for option variants.
const DefaultCapacity = 512

// Key derives the canonical cache key for one synthesis problem: the
// command's normalized argv (shell tokenization already applied, so
// quoting and whitespace variants of the same command collide), the
// preprocessing-selected delimiter set (which fixes the candidate search
// space), and every value that steers the algorithms — integers and
// bools, in a fixed order, each in its default format and separated by
// "|". Worker counts and cache configuration are deliberately absent:
// synthesis is deterministic in the degree of parallelism, so results are
// shared across them. The key is a hex SHA-256, safe to use as a file
// name.
func Key(argv []string, delims []byte, steer ...any) string {
	h := sha256.New()
	for _, a := range argv {
		io.WriteString(h, a)
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	h.Write(delims)
	h.Write([]byte{1})
	for i, v := range steer {
		if i > 0 {
			io.WriteString(h, "|")
		}
		fmt.Fprint(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is the serializable form of one synthesis result. The plausible
// combiners are stored in the DSL's textual form (dsl.ParseCandidate's
// input grammar), so the engine can rebuild the live candidate set and its
// composite combiner from an entry without re-running synthesis.
type Entry struct {
	// Version is the format version (EntryVersion when written).
	Version int `json:"version"`
	// Spec is the command text the result was synthesized for.
	Spec string `json:"spec"`
	// Argv is the normalized argv the key was derived from.
	Argv []string `json:"argv"`
	// Delims holds the delimiter bytes of the search space.
	Delims string `json:"delims"`
	// SpaceRec, SpaceStruct and SpaceRun are the initial search-space
	// per-class candidate counts (Table 10's third column).
	SpaceRec    int `json:"space_rec"`
	SpaceStruct int `json:"space_struct"`
	SpaceRun    int `json:"space_run"`
	// Plausible holds the surviving candidates in DSL textual form.
	Plausible []string `json:"plausible"`
	// Err is "" for a synthesized combiner, or a sentinel tag
	// ("no-combiner", "no-outputs") for a cached negative result.
	Err string `json:"err,omitempty"`
	// Rounds and Observations echo the original run's effort.
	Rounds       int `json:"rounds"`
	Observations int `json:"observations"`
	// ReductionRatio is the observed |f(x)|/|x| estimate.
	ReductionRatio float64 `json:"reduction_ratio"`
	// DurationNS is the original synthesis wall time in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
}

// Tier identifies which cache layer served one synthesis call. Unlike a
// Stats delta — which is only exact when no other call overlaps the
// window — a Tier is attributed to its call at the lookup site, so it
// stays exact under arbitrary concurrency (the property the server's
// per-request "cached" verdict relies on).
type Tier int

const (
	// TierMiss means nothing was cached: a full synthesis ran.
	TierMiss Tier = iota
	// TierMemory means the in-memory LRU served the call.
	TierMemory
	// TierDisk means the on-disk store served the call.
	TierDisk
)

// Cached reports whether the tier is a cache hit of any kind.
func (t Tier) Cached() bool { return t == TierMemory || t == TierDisk }

// String names the tier for wire formats: "miss", "memory" or "disk".
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	// Hits counts syntheses resolved from memory (the LRU).
	Hits int64
	// DiskHits counts syntheses resolved from the on-disk store.
	DiskHits int64
	// Misses counts full synthesis runs (nothing cached anywhere).
	Misses int64
}

// Lookups is the total number of cache consultations.
func (s Stats) Lookups() int64 { return s.Hits + s.DiskHits + s.Misses }

// Sub returns the element-wise difference s - prev, for windowed
// reporting (e.g. the activity attributable to one pipeline compilation).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:     s.Hits - prev.Hits,
		DiskHits: s.DiskHits - prev.DiskHits,
		Misses:   s.Misses - prev.Misses,
	}
}

// Add returns the element-wise sum s + other, for aggregating per-call
// attributions into a per-request total.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		Hits:     s.Hits + other.Hits,
		DiskHits: s.DiskHits + other.DiskHits,
		Misses:   s.Misses + other.Misses,
	}
}

// Count returns a Stats recording one call served by the given tier.
func (t Tier) Count() Stats {
	switch t {
	case TierMemory:
		return Stats{Hits: 1}
	case TierDisk:
		return Stats{DiskHits: 1}
	default:
		return Stats{Misses: 1}
	}
}

// Counters accumulates cache statistics; all methods are safe for
// concurrent use. The zero value is ready.
type Counters struct {
	hits, diskHits, misses atomic.Int64
}

// Hit records a memory-cache hit.
func (c *Counters) Hit() { c.hits.Add(1) }

// DiskHit records an on-disk store hit.
func (c *Counters) DiskHit() { c.diskHits.Add(1) }

// Miss records a full synthesis run.
func (c *Counters) Miss() { c.misses.Add(1) }

// Snapshot returns the current totals.
func (c *Counters) Snapshot() Stats {
	return Stats{Hits: c.hits.Load(), DiskHits: c.diskHits.Load(), Misses: c.misses.Load()}
}

// LRU is a thread-safe fixed-capacity least-recently-used map from cache
// keys to opaque values (the engine stores *synth.Result). Get and Put
// are O(1): every warm synthesis lookup of a many-client daemon lands
// here, under the one mutex.
type LRU struct {
	mu    sync.Mutex
	cap   int
	order *list.List // of *lruItem, most recently used first
	items map[string]*list.Element
}

type lruItem struct {
	key string
	v   any
}

// NewLRU returns an LRU holding at most capacity entries
// (DefaultCapacity when capacity <= 0).
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &LRU{cap: capacity, order: list.New(), items: make(map[string]*list.Element, capacity)}
}

// Get returns the value for key and marks it most recently used.
func (l *LRU) Get(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem).v, true
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (l *LRU) Put(key string, v any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		el.Value.(*lruItem).v = v
		l.order.MoveToFront(el)
		return
	}
	if len(l.items) >= l.cap {
		oldest := l.order.Remove(l.order.Back()).(*lruItem)
		delete(l.items, oldest.key)
	}
	l.items[key] = l.order.PushFront(&lruItem{key: key, v: v})
}

// Len reports the current entry count.
func (l *LRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Store is the optional on-disk combiner store: one JSON file per cache
// key under a directory. All failures (unreadable dir, corrupt entry,
// version skew) degrade to cache misses; Put errors are returned but safe
// to ignore — the store is an accelerator, never a source of truth.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) an on-disk store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Get loads the entry for key, reporting false on any miss or decode
// failure.
func (s *Store) Get(key string) (*Entry, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	var e Entry
	if json.Unmarshal(data, &e) != nil || e.Version != EntryVersion {
		return nil, false
	}
	return &e, true
}

// Put persists the entry for key atomically (write to a temp file, then
// rename), so concurrent readers never observe a torn entry.
func (s *Store) Put(key string, e *Entry) error {
	e.Version = EntryVersion
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "entry-*.tmp")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: write %s: %v / %v", key, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// path maps a key to its entry file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}
