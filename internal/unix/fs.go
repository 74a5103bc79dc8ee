package unix

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"kumquat/internal/textio"
)

// fsEntry is one registered file: its contents as a string view (a
// zero-copy alias of the backing bytes for mapped files). An entry is
// immutable once registered, so the seed corpus's entries are shared by
// every FS in the process.
type fsEntry struct {
	data string
	// mapping is non-nil when data aliases an OS memory mapping; the FS
	// keeps it alive until Close so no view can dangle.
	mapping *textio.Mapping
}

// FS is the simulated file system backing xargs, comm and file. The paper's
// experiments read real files; here file names map to registered in-memory
// contents. A command that references an unregistered file fails with an
// error, which reproduces the probe behaviour §3.2 relies on: xargs errors
// on word-list inputs (the words are not files) but succeeds on lists of
// legal file names (drawn from this FS).
//
// Register keeps the caller's string and RegisterMapping aliases the
// mapping's bytes, so ingest copies nothing. Mapped entries stay alive —
// even after Remove or re-registration — until Close, so zero-copy views
// handed out earlier can never dangle.
type FS struct {
	mu     sync.RWMutex
	files  map[string]*fsEntry
	corpus []string // names offered as the legal-file-name dictionary
	// retired holds mappings displaced by Remove/re-registration; they
	// are closed with the FS, not before (views may still circulate).
	retired []*textio.Mapping
}

// seedCorpus builds the deterministic corpus every FS starts from, once
// per process: 48 small text files (f000.txt .. f047.txt), a handful of
// script files, and a sorted dictionary at "dict.sorted" (used by
// comm-based spell checking). names is the sorted legal-file-name
// dictionary. Both results are shared: callers clone before mutating.
var seedCorpus = sync.OnceValues(func() (files map[string]*fsEntry, names []string) {
	files = make(map[string]*fsEntry)
	rng := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < 48; i++ {
		name := fmt.Sprintf("f%03d.txt", i)
		files[name] = &fsEntry{data: syntheticText(rng, 3+rng.Intn(6))}
		names = append(names, name)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%02d.sh", i)
		files[name] = &fsEntry{data: syntheticScript(rng, 2+rng.Intn(12))}
		names = append(names, name)
	}
	files["dict.sorted"] = &fsEntry{data: defaultDict()}
	sort.Strings(names)
	return files, names
})

// NewFS returns a file system pre-seeded with the deterministic corpus
// (see seedCorpus). It runs per request on the service plane, so it only
// clones the seed's map and name list; benchmarks and requests register
// additional inputs on top, invisibly to every other FS.
func NewFS() *FS {
	files, names := seedCorpus()
	return &FS{files: maps.Clone(files), corpus: slices.Clone(names)}
}

// DictionaryNames returns the corpus file names used as the synthesizer's
// legal-file-name dictionary (§3.2). Support files such as dict.sorted are
// readable but excluded: the dictionary models a directory listing of data
// files, as in the paper's environment.
func (fs *FS) DictionaryNames() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return append([]string(nil), fs.corpus...)
}

// AddToDictionary registers a file and includes it in the legal-file-name
// dictionary (used by benchmark input registration).
func (fs *FS) AddToDictionary(name, content string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.put(name, &fsEntry{data: content})
	fs.corpus = append(fs.corpus, name)
	sort.Strings(fs.corpus)
}

// Register adds or replaces a file.
func (fs *FS) Register(name, content string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.put(name, &fsEntry{data: content})
}

// RegisterMapping adds or replaces a file backed by a memory mapping.
// The FS takes ownership: the mapping stays alive — surviving Remove and
// re-registration — until Close, so zero-copy views cannot dangle.
func (fs *FS) RegisterMapping(name string, m *textio.Mapping) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.put(name, &fsEntry{data: m.View(), mapping: m})
}

// put installs an entry, retiring any displaced mapping.
func (fs *FS) put(name string, e *fsEntry) {
	if old, ok := fs.files[name]; ok && old.mapping != nil {
		fs.retired = append(fs.retired, old.mapping)
	}
	fs.files[name] = e
}

// Remove deletes a file if present (rm is tolerant, like rm -f).
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[name]; ok && old.mapping != nil {
		fs.retired = append(fs.retired, old.mapping)
	}
	delete(fs.files, name)
}

// Close releases every mapping the FS ever owned (live and retired).
// Call only when no view of any mapped file — string or []byte — can be
// used again; typically at process or test teardown.
func (fs *FS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	closeOne := func(m *textio.Mapping) {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, e := range fs.files {
		if e.mapping != nil {
			closeOne(e.mapping)
		}
	}
	for _, m := range fs.retired {
		closeOne(m)
	}
	fs.retired = nil
	return first
}

// Read returns the content of a registered file.
func (fs *FS) Read(name string) (string, error) {
	e, err := fs.lookup(name)
	if err != nil {
		return "", err
	}
	return e.data, nil
}

// ReadSeq indexes a registered file's lines, afresh on every call. Its
// only caller is the repo benchmark's textio.index probe (benchmark/ is
// frozen); the executor reads with Read and splits with
// textio.ChunkLines, and this shim retires with the probe.
func (fs *FS) ReadSeq(name string) (textio.LineSeq, error) {
	e, err := fs.lookup(name)
	if err != nil {
		return textio.LineSeq{}, err
	}
	return textio.ScanLines(e.data), nil
}

func (fs *FS) lookup(name string) (*fsEntry, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	e, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%s: No such file or directory", name)
	}
	return e, nil
}

// Names returns all registered file names in sorted order. The synthesizer
// uses this as the legal-file-name dictionary for commands whose probes
// demand file names (§3.2).
func (fs *FS) Names() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NamesUnder returns registered names with the given prefix, sorted.
func (fs *FS) NamesUnder(prefix string) []string {
	var out []string
	for _, n := range fs.Names() {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	return out
}

var fillerWords = []string{
	"the", "and", "of", "to", "light", "sea", "ship", "night", "wind",
	"stone", "river", "green", "dark", "song", "word", "time", "land",
	"king", "gold", "dream",
}

// linePool is the shared set of lines synthetic files draw from. Sharing a
// small pool makes duplicate lines across files common, so xargs-style
// commands produce observations with equal boundary lines — the
// counterexamples that eliminate incorrect stitch candidates during
// synthesis. Every line contains a space so that the space-keyed offset
// combiners stay within their legality domain, as in Table 10.
var linePool = func() []string {
	rng := rand.New(rand.NewSource(0x11e5))
	pool := make([]string, 12)
	for i := range pool {
		n := 3 + rng.Intn(5)
		words := make([]string, n)
		for j := range words {
			words[j] = fillerWords[rng.Intn(len(fillerWords))]
		}
		pool[i] = strings.Join(words, " ")
	}
	return pool
}()

func syntheticText(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString(linePool[rng.Intn(len(linePool))])
		b.WriteByte('\n')
	}
	return b.String()
}

func syntheticScript(rng *rand.Rand, lines int) string {
	var b strings.Builder
	b.WriteString("#! /bin/sh\n")
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "echo step%d\n", rng.Intn(100))
	}
	return b.String()
}

func defaultDict() string {
	words := append([]string(nil), fillerWords...)
	words = append(words, "a", "i", "cat", "dog", "house", "tree", "water",
		"fire", "earth", "morning", "evening", "letter", "paper", "road")
	sort.Strings(words)
	return strings.Join(words, "\n") + "\n"
}
