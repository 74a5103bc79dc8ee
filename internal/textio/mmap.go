package textio

import (
	"os"
	"sync/atomic"
)

// Mapping is a read-only byte view of a file's contents: an OS memory
// mapping where the platform supports one, or a buffer the file was read
// into otherwise (pipes, empty files, non-mmap platforms). Either way
// View is stable for the life of the Mapping, so chunking a
// mapped input is pure pointer arithmetic — no copy of the corpus is
// ever made.
//
// Safety contract: the file must not be modified while mapped. A mapped
// file is aliased memory, so an external writer mutating it in place
// changes the bytes under a running pipeline (outputs become undefined,
// though memory-safe), and truncating it below the mapped length can
// deliver SIGBUS on access. KumQuat therefore treats mapped inputs as
// immutable snapshots: callers own the choice of mapping only files
// nothing else writes, and the fallback (read-into-buffer) path is the
// escape hatch when that cannot be guaranteed. Close unmaps; the caller
// must ensure no View strings (or LineSeqs over them) are used
// afterwards — the FS layer upholds this by keeping every registered
// mapping alive until the environment itself is closed.
type Mapping struct {
	data   []byte
	mapped bool
	closed atomic.Bool
}

// View returns the mapped contents as a zero-copy string. It must not be
// used after Close.
func (m *Mapping) View() string { return View(m.data) }

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int { return len(m.data) }

// Close releases the mapping. Closing a fallback buffer is a no-op
// beyond dropping the reference; Close is idempotent.
func (m *Mapping) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if !m.mapped {
		m.data = nil
		return nil
	}
	data := m.data
	m.data = nil
	return munmap(data)
}

// MapFile opens path read-only as a Mapping: memory-mapped when the
// platform supports it and the file is a nonempty regular file, read
// into a buffer otherwise. Empty files yield an empty fallback Mapping
// (zero-length mmap is an error on most platforms, and there is nothing
// to share).
func MapFile(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if mmapSupported && st.Mode().IsRegular() && st.Size() > 0 {
		if data, merr := mmapFile(f, int(st.Size())); merr == nil {
			return &Mapping{data: data, mapped: true}, nil
		}
		// Mapping failed (exotic filesystem, size race): fall through to
		// the plain read below rather than surfacing an mmap-only error.
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}
