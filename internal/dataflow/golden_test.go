package dataflow_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden program dumps")

// goldenPipelines are the example-suite scripts whose optimized programs
// the goldens pin: the quickstart and wordfreq pipelines, three unix50
// scripts (a long streamer chain, an order-insensitive reduction, and a
// chain whose last mapper only a line count reads), and an analytics
// query. A capability probe drifting or a rule firing where
// it should not shows up as a readable diff in the dump.
var goldenPipelines = []struct {
	name   string
	script string
}{
	{"quickstart", "cat data.txt | sort | uniq -c | sort -rn\n"},
	{"wordfreq", `cat in/book.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn` + "\n"},
	{"unix50_chess", `cat in/chess.txt | tr ' ' '\n' | grep 'x' | grep '\.' | cut -d '.' -f 2 | grep '[KQRBN]' | cut -c 1-1 | sort | uniq -c | sort -rn` + "\n"},
	{"unix50_count", "cat in/history.tsv | cut -f 1 | grep 'AT&T' | wc -l\n"},
	{"unix50_chess_count", `cat in/chess.txt | tr ' ' '\n' | grep 'x' | cut -d '.' -f 2 | grep -v '[KQRBN]' | cut -c 1-1 | wc -l` + "\n"},
	{"analytics_days", `cat in/mts.csv | sed 's/T..:..:..//' | cut -d ',' -f 1,3 | sort -u | cut -d ',' -f 1 | sort | uniq -c` + "\n"},
	{"push_sort_merge", "cat in.txt | sort | sed 's/^/> /'\n"},
}

// TestGoldenProgramDumps compiles each example pipeline and compares the
// optimizer's program dump — nodes with their output closures, regions,
// exits and fired rules — against the checked-in golden. Run with -update to
// regenerate after an intentional optimizer change.
func TestGoldenProgramDumps(t *testing.T) {
	eng := newSynth()
	for _, gp := range goldenPipelines {
		plan := compile(t, eng, gp.script)
		got := plan.Program.Dump()
		path := filepath.Join("testdata", gp.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", gp.name, err)
		}
		if got != string(want) {
			t.Errorf("%s: program dump drifted from golden\n got:\n%s\nwant:\n%s", gp.name, got, want)
		}
	}
}
