package pipeline

import (
	"slices"
	"strings"
	"testing"

	"kumquat/internal/unix"
)

// FuzzParser drives the hardened script parser (and the command
// tokenizer behind it) with arbitrary input: it must never panic, every
// script it accepts must decompose into stages the command parser can at
// least tokenize without crashing, and each pipeline's stages, joined by
// " | " and split again by the one pipe splitter, must come back as the
// same stages — cluster dispatch ships a segment as that joined script.
// CI runs this with a short -fuzztime budget; the seed corpus covers the
// grammar's edges the parser hardening targets (unterminated quotes,
// dangling redirects, empty stages) and pipes quoted inside a stage.
func FuzzParser(f *testing.F) {
	seeds := []string{
		"cat in.txt | sort | uniq -c\n",
		"cat in/text.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | sed 100q\n",
		"X=${X:-in.txt}\ncat $X | wc -l\n",
		"# comment\nsort -k1n < in.txt > out.txt\n",
		"mkfifo s1 s2\ncat a | sort > s1\ndiff -B s1 s2\nrm s1 s2\n",
		"a | | b\n",
		"| sort\n",
		"sort |\n",
		"cat <\n",
		"echo 'unterminated\n",
		"grep \"half\\\"quoted\n",
		"sort > \n",
		"cat in.txt | \x00 | sort\n",
		"VAR=\ncat ${VAR}$\n",
		strings.Repeat("a|", 300) + "\n",
		"cat in.txt | grep 'a|b' | wc -l\n",
		"sed 's/|/x/' < in.txt | sort\n",
		"awk -F'|' '{print $1}' | sort -u\n",
		"tr '|' x | tr -d \"|\"\\| > out.txt\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	env := unix.DefaultEnv()
	f.Fuzz(func(t *testing.T, src string) {
		script, err := ParseScript(src, nil)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		for _, pl := range script.Pipelines {
			again, err := unix.SplitMembers(strings.Join(pl.Stages, " | "))
			if err != nil || !slices.Equal(again, pl.Stages) {
				t.Fatalf("stages %q split back as %q (%v)", pl.Stages, again, err)
			}
			for _, spec := range pl.Stages {
				// Accepted stages must never crash the command parser;
				// unknown commands and bad flags are ordinary errors.
				_, _ = unix.Parse(spec, env)
			}
		}
	})
}
