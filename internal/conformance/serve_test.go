package conformance

import (
	"context"
	"testing"

	"kumquat"
)

// TestReplayServeHandcrafted holds the HTTP plane to the serial oracle
// on handcrafted cases covering both input plumbings: a stdin-fed
// pipeline and a `cat FILE` source the daemon must bind the request
// body to.
func TestReplayServeHandcrafted(t *testing.T) {
	sys := kumquat.New(kumquat.NewEnv())
	cases := []*Case{
		{Script: "sort | uniq -c | sort -rn\n", Corpus: "b\na\nb\nc\na\nb\n", Profile: "hand"},
		{Script: "cat in.txt | tr A-Z a-z | sort | uniq\n", Source: "in.txt",
			Corpus: "Pear\napple\nPEAR\nfig\n", Profile: "hand"},
		{Script: "grep -c a\n", Corpus: "apple\nfig\npear\n", Profile: "hand"},
		{Script: "wc -l\n", Corpus: "", Profile: "hand-empty"},
	}
	rep, err := replayServe(context.Background(), sys, cases, replayOptions{K: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("serve divergences: %+v", rep.Divergences)
	}
	if rep.Cases != len(cases) || rep.PlansChecked != len(cases) {
		t.Fatalf("replay coverage: %+v", rep)
	}
}
