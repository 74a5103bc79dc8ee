package unix

import (
	"slices"
	"strings"
	"sync"
)

// MemoBytes bounds what one Env's memo holds: the owned copies of the
// chunks it compares against and of their outputs, plus a small
// per-entry charge.
const MemoBytes = 64 << 20

// memoEntryOverhead is what the memo charges each entry beyond its
// bytes: the entry, its volume slice and its slot.
const memoEntryOverhead = 128

// Memo remembers chain runs an Env has already made. A run of a chain
// that reads and writes no file of the Env (ReadsEnv) is a pure function
// of its script and its input, so a chunk the memo has seen under the
// same script is answered with the output and member volumes stored for
// it. It keeps one generation per script — the chunks of that script's
// last successful run, by position — and evicts whole generations,
// least recently stored first, to stay within MemoBytes. Chunk i of a
// run is compared with chunk i of the generation: the caller's chunk
// bounds stay put when a stream grows at its end (textio.StrideLines),
// and an input that moves them misses whatever the lookup. Every entry
// owns a copy of its chunk and of its output, a hit compares the chunk
// with that copy byte for byte, and nothing in the memo aliases an
// input, a mapping or a caller's buffer.
type Memo struct {
	mu    sync.Mutex
	gens  map[string]*memoGen
	bytes int64
	clock uint64
}

// memoGen is the entries of one script's last stored run, in chunk
// order. It is never written once stored, so a run reads it without the
// lock.
type memoGen struct {
	entries []*memoEntry
	bytes   int64
	stored  uint64
}

// memoEntry is one chunk's stored run; it is never written once stored.
type memoEntry struct {
	in, out  string
	bytesOut []int64
}

func entrySize(in, out string, bytesOut []int64) int64 {
	return int64(len(in)+len(out)+8*len(bytesOut)) + memoEntryOverhead
}

// ReadsEnv reports whether some member of c reads or writes the Env's
// files: cat FILE, comm, paste, diff, xargs, file, ls and rm declare it
// by having the method. Such a run is not a function of its input alone,
// so the memo never stores it, and the synthesizer's disk tier never
// keeps its verdict. A command that does not declare it is taken to
// read only its input.
func ReadsEnv(c Command) bool {
	if ch, ok := c.(*Chain); ok {
		return slices.ContainsFunc(ch.members, ReadsEnv)
	}
	re, ok := c.(interface{ ReadsEnv() bool })
	return ok && re.ReadsEnv()
}

// maxScripts bounds the pipeline scripts an Env remembers having run;
// past it the record starts over, so a script is a re-run again from its
// next run on.
const maxScripts = 1024

// Rerun records a run of a pipeline script on the Env and returns the
// Env's memo when the Env has run that script before. On the first run
// of a script it returns nil: an Env that runs a script once — a CLI
// run, a daemon request, each pipeline of a multi-pipeline script —
// compares and stores nothing.
func (e *Env) Rerun(script string) *Memo {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.ran[script] {
		if e.ran == nil || len(e.ran) >= maxScripts {
			e.ran = map[string]bool{}
		}
		e.ran[script] = true
		return nil
	}
	if e.memo == nil {
		e.memo = &Memo{gens: map[string]*memoGen{}}
	}
	return e.memo
}

// MemoRun is one chunked run of a script against the memo: Lookup every
// chunk, run the misses, then Commit the run's outputs.
type MemoRun struct {
	m      *Memo
	script string
	// gen is the script's generation when the run began.
	gen  *memoGen
	hits []*memoEntry
}

// Begin starts a run of script over n chunks.
func (m *Memo) Begin(script string, n int) *MemoRun {
	m.mu.Lock()
	gen := m.gens[script]
	m.mu.Unlock()
	return &MemoRun{m: m, script: script, gen: gen, hits: make([]*memoEntry, n)}
}

// Lookup returns the output and member volumes stored for chunk i when
// the script's generation holds, at i, a chunk equal to it byte for
// byte. The volumes are shared: read them, never write them. Calls for
// distinct i may run concurrently.
func (r *MemoRun) Lookup(i int, chunk string) (out string, bytesOut []int64, ok bool) {
	if r.gen == nil || i >= len(r.gen.entries) {
		return "", nil, false
	}
	e := r.gen.entries[i]
	if e.in != chunk {
		return "", nil, false
	}
	r.hits[i] = e
	return e.out, e.bytesOut, true
}

// Reused reports how many chunks Lookup answered and their input bytes.
func (r *MemoRun) Reused() (hits int, bytes int64) {
	for _, e := range r.hits {
		if e != nil {
			hits++
			bytes += int64(len(e.in))
		}
	}
	return hits, bytes
}

// Commit makes this run the script's generation: the entries its hits
// came from and owned copies of every miss, in chunk order while they
// fit in MemoBytes, replacing whatever the script held. Call it only
// after every chunk succeeded: a failure is never stored. Other scripts'
// generations are evicted, least recently stored first, until the memo
// fits again.
func (r *MemoRun) Commit(chunks, outs []string, bytesOut [][]int64) {
	gen := &memoGen{entries: make([]*memoEntry, 0, len(chunks))}
	for i, chunk := range chunks {
		size := entrySize(chunk, outs[i], bytesOut[i])
		if gen.bytes+size > MemoBytes {
			break
		}
		e := r.hits[i]
		if e == nil {
			e = &memoEntry{in: strings.Clone(chunk), out: strings.Clone(outs[i]), bytesOut: slices.Clone(bytesOut[i])}
		}
		gen.entries = append(gen.entries, e)
		gen.bytes += size
	}
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.gens[r.script]; old != nil {
		m.bytes -= old.bytes
	}
	m.clock++
	gen.stored = m.clock
	m.gens[r.script] = gen
	m.bytes += gen.bytes
	for m.bytes > MemoBytes {
		var oldest *memoGen
		var key string
		for script, g := range m.gens {
			if g != gen && (oldest == nil || g.stored < oldest.stored) {
				oldest, key = g, script
			}
		}
		m.bytes -= oldest.bytes
		delete(m.gens, key)
	}
}
