package bench

import (
	"strings"
	"testing"

	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// Input-fidelity tests: the synthetic datasets must have the structural
// properties the scripts depend on (the behaviour-preservation argument in
// DESIGN.md's substitution table).

func register(t *testing.T, kind string, lines int) *unix.Env {
	t.Helper()
	files, err := Inputs(kind, lines)
	if err != nil {
		t.Fatal(err)
	}
	env := unix.DefaultEnv()
	for name, data := range files {
		env.FS.Register(name, data)
	}
	return env
}

func TestMTSShape(t *testing.T) {
	env := register(t, "mts", 500)
	data, _ := env.FS.Read("in/mts.csv")
	lines := textio.Lines(data)
	if len(lines) != 500 {
		t.Fatalf("mts lines = %d", len(lines))
	}
	days := map[string]bool{}
	vehicles := map[string]bool{}
	for _, l := range lines {
		fields := strings.Split(l, ",")
		if len(fields) != 4 {
			t.Fatalf("mts row %q has %d fields", l, len(fields))
		}
		ts := fields[0]
		if len(ts) != 19 || ts[10] != 'T' || ts[13] != ':' {
			t.Fatalf("bad timestamp %q", ts)
		}
		days[ts[:10]] = true
		vehicles[fields[2]] = true
	}
	// Key skew: many rows, few vehicles/days — what drives uniq -c counts.
	if len(vehicles) > 45 || len(days) < 30 {
		t.Errorf("mts cardinalities off: %d vehicles, %d days", len(vehicles), len(days))
	}
}

func TestChessShape(t *testing.T) {
	env := register(t, "chess", 400)
	data, _ := env.FS.Read("in/chess.txt")
	// The 4.x pipelines need tokens containing both 'x' and '.'.
	captures := 0
	for _, tok := range strings.Fields(data) {
		if strings.Contains(tok, "x") && strings.Contains(tok, ".") {
			captures++
		}
	}
	if captures < 50 {
		t.Errorf("chess data has too few numbered captures: %d", captures)
	}
}

func TestBooksShape(t *testing.T) {
	env := register(t, "books", 2000)
	names := env.FS.NamesUnder("pg/")
	if len(names) < 5 {
		t.Fatalf("too few books: %d", len(names))
	}
	var all strings.Builder
	for _, n := range names {
		c, _ := env.FS.Read(n)
		all.WriteString(c)
	}
	// The trigram_rec phrases must occur.
	if !strings.Contains(all.String(), "the land of") || !strings.Contains(all.String(), "And he said") {
		t.Error("books lack the trigram_rec phrases")
	}
	// genesis.txt for compare_exodus_genesis.
	if _, err := env.FS.Read("in/genesis.txt"); err != nil {
		t.Error("genesis.txt missing")
	}
}

func TestTextHasLightAndPunctuation(t *testing.T) {
	env := register(t, "text", 800)
	data, _ := env.FS.Read("in/text.txt")
	if !strings.Contains(data, "light") {
		t.Error("text lacks 'light' (poets greps would be empty)")
	}
	if !strings.Contains(data, ",") || !strings.Contains(data, ".") {
		t.Error("text lacks punctuation (spell/tr -d punct untested)")
	}
	if strings.ToLower(data) == data {
		t.Error("text lacks uppercase (case-folding stages untested)")
	}
}

func TestMailShape(t *testing.T) {
	env := register(t, "mail", 300)
	data, _ := env.FS.Read("in/mail.txt")
	if !strings.Contains(data, "@") || !strings.Contains(data, "To: ") {
		t.Error("mail data lacks recipients")
	}
}

func TestHistoryShape(t *testing.T) {
	env := register(t, "history", 300)
	data, _ := env.FS.Read("in/history.tsv")
	hasATT, has1969 := false, false
	for _, l := range textio.Lines(data) {
		fields := strings.Split(l, "\t")
		if len(fields) != 4 {
			t.Fatalf("history row %q has %d tab fields", l, len(fields))
		}
		if strings.Contains(fields[0], "AT&T") {
			hasATT = true
		}
		if fields[3] == "1969" {
			has1969 = true
		}
	}
	if !hasATT || !has1969 {
		t.Errorf("history lacks AT&T (%v) or 1969 (%v)", hasATT, has1969)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := register(t, "poem", 200)
	b := register(t, "poem", 200)
	da, _ := a.FS.Read("in/poem.txt")
	db, _ := b.FS.Read("in/poem.txt")
	if da != db {
		t.Error("generation must be deterministic for a (kind, scale) pair")
	}
}

func TestScaleControlsSize(t *testing.T) {
	small := register(t, "text", 100)
	large := register(t, "text", 10000)
	ds, _ := small.FS.Read("in/text.txt")
	dl, _ := large.FS.Read("in/text.txt")
	if len(textio.Lines(ds)) != 100 || len(textio.Lines(dl)) != 10000 {
		t.Errorf("scale not respected: %d and %d lines",
			len(textio.Lines(ds)), len(textio.Lines(dl)))
	}
}
