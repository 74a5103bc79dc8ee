package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when KQBENCH_MAIN is set, so a
// test can drive the command as a child process of its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("KQBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownTable: a -table value that names no table exits 2 with the
// valid names, before any header or run.
func TestUnknownTable(t *testing.T) {
	for _, table := range []string{"2", "foo"} {
		cmd := exec.Command(os.Args[0], "-table", table)
		cmd.Env = append(os.Environ(), "KQBENCH_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-table %s: err = %v, want exit status 2", table, err)
		}
		if !strings.Contains(string(out), "valid: 3, 1, 4, 5, 6, 7, 8, 9, 10, summary, all") ||
			strings.Contains(string(out), "CPUs") {
			t.Errorf("-table %s printed %q, want only the valid tables", table, out)
		}
	}
}
