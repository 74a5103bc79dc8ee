package textio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMapFileMatchesReadFile: whatever path MapFile takes — the OS
// mapping for nonempty regular files, the read-into-buffer fallback for
// empty ones — the bytes and the derived line index must be identical to
// a plain os.ReadFile. Covers empty files, a lone newline, unterminated
// final lines, and a corpus spanning several 4 KiB pages with lines
// straddling the page boundaries.
func TestMapFileMatchesReadFile(t *testing.T) {
	pagey := strings.Repeat(strings.Repeat("x", 1500)+"\n", 12) // lines straddle 4096-byte pages
	cases := map[string]string{
		"empty":       "",
		"newline":     "\n",
		"terminated":  "a\nbb\nccc\n",
		"no-trailing": "a\nbb\nccc",
		"pagey":       pagey,
		"pagey-tail":  pagey + "tail-without-newline",
	}
	for name, content := range cases {
		path := writeTemp(t, name+".txt", content)
		m, err := MapFile(path)
		if err != nil {
			t.Fatalf("%s: MapFile: %v", name, err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.View() != string(want) {
			t.Errorf("%s: View() diverges from ReadFile (%d vs %d bytes)", name, m.Len(), len(want))
		}
		if m.Len() != len(want) {
			t.Errorf("%s: Len() = %d, want %d", name, m.Len(), len(want))
		}
		// The universal indexed view over the mapping must agree with a
		// scan of the copied contents line for line.
		seq := ScanLines(m.View())
		wantLines := Lines(string(want))
		if seq.Len() != len(wantLines) {
			t.Errorf("%s: ScanLines.Len() = %d, want %d", name, seq.Len(), len(wantLines))
		} else {
			for i := range wantLines {
				if seq.Line(i) != wantLines[i] {
					t.Errorf("%s: line %d = %q, want %q", name, i, seq.Line(i), wantLines[i])
				}
			}
		}
		if content == "" && m.mapped {
			t.Errorf("%s: empty file must use the fallback buffer", name)
		}
		if err := m.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestMappingSurvivesUnlink: the OS keeps a mapped file's pages alive
// after the path is unlinked — the property that lets the FS retire
// mappings without tracking the host file's lifetime. (This is also the
// boundary of the mutation contract: the mapping is a snapshot of the
// inode, not of the name.)
func TestMappingSurvivesUnlink(t *testing.T) {
	content := strings.Repeat("line of mapped text\n", 1000)
	path := writeTemp(t, "unlinked.txt", content)
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if m.View() != content {
		t.Error("mapping diverged after unlink")
	}
}

// TestMappingMutationContract documents the safety contract: the mapped
// bytes are a live alias of the file, so KumQuat must copy anything it
// needs to survive an external writer. strings.Clone of a view detaches
// it; the test pins that the clone — not the view — is the durable copy.
func TestMappingMutationContract(t *testing.T) {
	path := writeTemp(t, "mutable.txt", "before\n")
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	snapshot := strings.Clone(m.View())
	// Rewriting the path replaces the inode (os.WriteFile truncates and
	// writes a new file only with O_TRUNC on the same inode — so mutate
	// via the same-length in-place write the contract warns about is not
	// attempted here; aliasing behaviour is platform-defined). The clone
	// must be immune regardless of what the view now shows.
	if err := os.WriteFile(path, []byte("after!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snapshot != "before\n" {
		t.Errorf("cloned snapshot changed: %q", snapshot)
	}
}

// TestMappingCloseIdempotent: double Close must be a no-op.
func TestMappingCloseIdempotent(t *testing.T) {
	path := writeTemp(t, "close.txt", "x\n")
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestMapFileMissing: a nonexistent path errors like os.Open.
func TestMapFileMissing(t *testing.T) {
	if _, err := MapFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("MapFile on missing path succeeded")
	}
}
