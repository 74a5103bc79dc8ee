package unix_test

import (
	"strings"
	"testing"

	"kumquat/internal/unix"
)

// fuzzProgramInput is the short fixed stream every parsed program runs
// over: fields, an empty line, digits for numeric comparisons, and an
// unterminated final line.
const fuzzProgramInput = "alpha beta 10\n\n2 light gamma\nx,y;z\tq\nlast 300"

// fuzzProgram fuzzes one command's program argument: unix.Parse over the
// program (passed as a single shell-quoted word) returns a command or an
// error and never panics, and a command that parses runs over
// fuzzProgramInput without panicking — an error is a fine answer, a crash
// is not. The corpus is seeded with every program of this command in the
// line-mapper table plus extra.
func fuzzProgram(f *testing.F, name string, extra ...string) {
	for _, tc := range lineMapperCases {
		for _, spec := range tc.specs {
			if toks, err := unix.Tokenize(spec); err == nil && toks[0] == name {
				f.Add(toks[len(toks)-1])
			}
		}
	}
	for _, prog := range extra {
		f.Add(prog)
	}
	env := unix.DefaultEnv()
	f.Fuzz(func(t *testing.T, prog string) {
		cmd, err := unix.Parse(name+" '"+strings.ReplaceAll(prog, "'", `'\''`)+"'", env)
		if err != nil {
			return
		}
		cmd.Run(fuzzProgramInput) //nolint:errcheck // only a panic fails
	})
}

// FuzzSedProgram fuzzes the sed program parser and its line kernel.
func FuzzSedProgram(f *testing.F) {
	fuzzProgram(f, "sed", "1d", "2q", "100q", "s;^;pg/;", "s/$/0s/",
		`s/T\(..\):..:../,\1/`, "s|a|b|", "s/b./<&>/", "y/a/b/", "s/a", "")
}

// FuzzAwkProgram fuzzes the awk program parser and its line kernel.
func FuzzAwkProgram(f *testing.F) {
	fuzzProgram(f, "awk", "$1 >= 1000", "length >= 5", "length <= 3",
		"{print $2,$1}", `$1 == "x"`, "{$3=$1};1", "$1 == 2 {print $2, $3}",
		"{print", "$", "", "{$0=0;}\xff", "{$-1=1}", "{$100000=1}")
}
