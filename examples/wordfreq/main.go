// Wordfreq reproduces the paper's §2 running example: the classic
// word-frequency pipeline
//
//	cat $IN | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn
//
// It shows the planning decisions the paper walks through — tr -cs runs
// sequentially (rerun combiner, no stream reduction), tr A-Z a-z loses its
// combiner to the Theorem 5 optimization — and compares serial,
// unoptimized-parallel and optimized-parallel execution times.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"kumquat"
)

func main() {
	env := kumquat.NewEnv()
	env.Register("in/book.txt", book(60000))
	sys := kumquat.New(env)
	ctx := context.Background()

	plan, err := sys.Parallelize(ctx,
		`cat in/book.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`+"\n")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("planning decisions (§2 of the paper):")
	for _, st := range plan.Stages() {
		mode := "parallel"
		switch {
		case st.Sequential:
			mode = "sequential (rerun-only, no reduction)"
		case st.Eliminated:
			mode = "parallel, combiner eliminated"
		}
		fmt.Printf("  %-24s %-38s %s\n", st.Spec, mode, st.Combiner)
	}

	// Every configuration goes through the streaming Execute API; the run
	// reports carry wall time directly, so nothing is timed by hand.
	run := func(mode kumquat.Mode, k int) *kumquat.RunReport {
		rep, err := plan.Execute(ctx, kumquat.WithMode(mode), kumquat.WithParallelism(k))
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	serialRep := run(kumquat.Serial, 1)
	want, serialTime := serialRep.Output, serialRep.Wall

	for _, k := range []int{2, 4, 16} {
		u := run(kumquat.Unoptimized, k)
		t := run(kumquat.Optimized, k)
		fmt.Printf("k=%-3d u_k=%8v (%.2fx)   T_k=%8v (%.2fx)   correct=%v\n",
			k, u.Wall.Round(time.Millisecond), float64(serialTime)/float64(u.Wall),
			t.Wall.Round(time.Millisecond), float64(serialTime)/float64(t.Wall),
			u.Output == want && t.Output == want)
	}

	fmt.Printf("\nserial u_1 = %v; top words:\n", serialTime.Round(time.Millisecond))
	lines := strings.SplitN(want, "\n", 6)
	fmt.Println(strings.Join(lines[:5], "\n"))
}

// book generates deterministic Zipf-flavoured text.
func book(lines int) string {
	words := []string{"the", "of", "and", "light", "sea", "wind", "to", "a",
		"stone", "river", "dark", "ship", "night", "king", "gold", "dream"}
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	for i := 0; i < lines; i++ {
		n := 5 + rng.Intn(8)
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			// Zipf-ish: low indices much more likely.
			idx := rng.Intn(len(words) * (1 + rng.Intn(3)) / 3)
			if idx >= len(words) {
				idx = rng.Intn(len(words))
			}
			b.WriteString(words[idx])
		}
		b.WriteString(".\n")
	}
	return b.String()
}
