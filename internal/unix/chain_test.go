package unix_test

import (
	"errors"
	"strings"
	"testing"

	"kumquat/internal/unix"
)

// TestParseChain: an unquoted '|' makes a chain whose spec is its
// members' specs joined by " | " (nested chains flatten); a quoted or
// escaped '|' stays command text; an empty member or an open quote is
// an error.
func TestParseChain(t *testing.T) {
	for spec, want := range map[string]string{
		"sort | uniq":               "sort | uniq",
		"tr A-Z a-z|grep a |  sort": "tr A-Z a-z | grep a | sort",
	} {
		cmd, err := unix.Parse(spec, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if _, ok := cmd.(*unix.Chain); !ok || cmd.Spec() != want {
			t.Errorf("Parse(%q) = %T %q, want a chain %q", spec, cmd, cmd.Spec(), want)
		}
	}
	for _, spec := range []string{`grep 'a|b'`, `sed 's/|/x/'`, `cut -d'|' -f 1`, `tr '|' x`, `tr \| x`} {
		cmd, err := unix.Parse(spec, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if _, ok := cmd.(*unix.Chain); ok || cmd.Spec() != spec {
			t.Errorf("Parse(%q) = %T %q, want the single command", spec, cmd, cmd.Spec())
		}
	}
	for _, spec := range []string{"sort |", "| sort", "a | | b", "", "grep 'a | sort"} {
		if cmd, err := unix.Parse(spec, nil); err == nil {
			t.Errorf("Parse(%q) = %q, want an error", spec, cmd.Spec())
		}
	}
	inner, _ := unix.Parse("tr A-Z a-z | grep a", nil)
	sort, _ := unix.Parse("sort", nil)
	if got := unix.NewChain(inner, sort).Spec(); got != "tr A-Z a-z | grep a | sort" {
		t.Errorf("nested chain spec = %q", got)
	}
}

// TestChainRuns: a chain's Run is its members' Run in turn, in one pass
// when every member is a line mapper; Stepwise reports each member's
// output volume; a failure names the member that failed, the innermost
// one when a member is itself a chain.
func TestChainRuns(t *testing.T) {
	env := unix.DefaultEnv()
	env.FS.Register("ok", "x\n")
	in := "Light a\nok\nsea\nLIGHT b\nlight"
	for spec, mapper := range map[string]bool{
		"tr A-Z a-z | grep light":           true,
		"tr A-Z a-z | sort | uniq -c":       false,
		"grep -v sea | tr -d ' ' | sort -r": false,
	} {
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			t.Fatal(err)
		}
		want := in
		for _, m := range strings.Split(spec, " | ") {
			c, _ := unix.Parse(m, env)
			if want, err = c.Run(want); err != nil {
				t.Fatal(err)
			}
		}
		got, err := cmd.Run(in)
		if err != nil || got != want {
			t.Errorf("%s: Run = %q, %v; want %q", spec, got, err, want)
		}
		if unix.CanStream(cmd) != mapper {
			t.Errorf("%s: line mapper %v, want %v", spec, !mapper, mapper)
		}
	}
	chain, _ := unix.Parse("grep o | wc -l", env)
	bytesOut := make([]int64, 2)
	if out, err := chain.(*unix.Chain).Stepwise("ok\nno\nx\n", bytesOut); err != nil || out != "2\n" || bytesOut[0] != 6 || bytesOut[1] != 2 {
		t.Errorf("Stepwise = %q, %v, volumes %v", out, err, bytesOut)
	}
	inner, _ := unix.Parse("tr A-Z a-z | xargs cat", env)
	outer := unix.NewChain(inner, chain)
	_, err := outer.Run("OK\nMISSING\n")
	var se *unix.StageError
	if !errors.As(err, &se) || se.Spec != "xargs cat" {
		t.Errorf("failure = %v, want it to name xargs cat", err)
	}
}
