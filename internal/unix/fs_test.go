package unix

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kumquat/internal/textio"
)

// TestNewFSIsolated: every FS starts from the same once-built seed corpus
// and owns its own name space — Register and Remove on
// one are invisible to every other, including FSs built concurrently
// (run under -race, this also proves the shared seed is only ever read).
func TestNewFSIsolated(t *testing.T) {
	ref := NewFS()
	wantNames, wantDict := ref.Names(), ref.DictionaryNames()
	if len(wantNames) != 57 || len(wantDict) != 56 {
		t.Fatalf("seed corpus: %d names, %d dictionary names; want 57, 56", len(wantNames), len(wantDict))
	}
	const builders = 8
	var wg sync.WaitGroup
	for w := 0; w < builders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fs := NewFS()
			if got := fs.Names(); !reflect.DeepEqual(got, wantNames) {
				t.Errorf("builder %d: Names() = %v, want %v", w, got, wantNames)
			}
			for _, name := range wantNames {
				got, err := fs.Read(name)
				want, _ := ref.Read(name)
				if err != nil || got != want {
					t.Errorf("builder %d: Read(%s) = %q, %v; want %q", w, name, got, err, want)
				}
			}
			fs.Register("f000.txt", "overwritten\n")
			fs.Register("private.txt", "mine\n")
			fs.Remove("f001.txt")
		}(w)
	}
	wg.Wait()

	for _, fs := range []*FS{ref, NewFS()} {
		if got := fs.Names(); !reflect.DeepEqual(got, wantNames) {
			t.Errorf("Names() after other FSs mutated = %v, want %v", got, wantNames)
		}
		if got := fs.DictionaryNames(); !reflect.DeepEqual(got, wantDict) {
			t.Errorf("DictionaryNames() after other FSs mutated = %v, want %v", got, wantDict)
		}
		if got, _ := fs.Read("f000.txt"); got == "overwritten\n" {
			t.Error("Register on another FS leaked into this one")
		}
	}
}

// TestNewFSAllocations pins the per-request cost of an environment: NewFS
// clones the seed's map and name list and regenerates nothing (the parent
// rebuilt all 57 synthetic files per call: 357 allocations).
func TestNewFSAllocations(t *testing.T) {
	NewFS() // build the seed outside the measurement
	if got := testing.AllocsPerRun(100, func() { NewFS() }); got > 30 {
		t.Errorf("NewFS allocates %.0f objects per call, want <= 30", got)
	}
}

// TestRegisterMappingLifetime: views handed out before Remove or
// re-registration must stay valid until FS.Close — the mapping is
// retired, never closed early.
func TestRegisterMappingLifetime(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.txt")
	content := strings.Repeat("mapped line\n", 2000)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := textio.MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFS()
	fs.RegisterMapping("in.txt", m)
	seq, err := fs.ReadSeq("in.txt")
	if err != nil {
		t.Fatal(err)
	}
	view, err := fs.Read("in.txt")
	if err != nil {
		t.Fatal(err)
	}

	// Displace the entry twice: once by re-registration, once by Remove.
	fs.Register("in.txt", "replacement\n")
	fs.Remove("in.txt")

	// The circulating views must still read the mapped bytes.
	if view != content {
		t.Fatal("string view dangled after Remove")
	}
	if seq.Str() != content {
		t.Fatal("line index dangled after Remove")
	}
	if got := strings.Join(textio.ChunkLines(view, 4), ""); got != content {
		t.Fatal("chunk views dangled after Remove")
	}

	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is terminal and idempotent through the FS too.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadSeqMissing: the line index of an unregistered file errors like
// Read does.
func TestReadSeqMissing(t *testing.T) {
	fs := NewFS()
	if _, err := fs.ReadSeq("absent.txt"); err == nil {
		t.Fatal("ReadSeq on missing file succeeded")
	}
}
