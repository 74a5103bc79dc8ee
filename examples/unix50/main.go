// Unix50 runs a selection of the Bell Labs Unix50-game pipelines — the
// puzzle scripts the paper uses as its fourth benchmark suite — and prints
// each plan alongside its parallel speedup and answer.
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

var puzzles = []struct{ title, src string }{
	{"4.4: histogram by piece",
		`cat in/chess.txt | tr ' ' '\n' | grep 'x' | grep '\.' | cut -d '.' -f 2 | grep '[KQRBN]' | cut -c 1-1 | sort | uniq -c | sort -rn`},
	{"7.1: number of versions",
		`cat in/history.tsv | cut -f 1 | grep 'AT&T' | wc -l`},
	{"8.4: longest words w/o hyphens",
		`cat in/text.txt | tr -c "[a-z][A-Z]" '\n' | sort -u | awk "length >= 16"`},
	{"1.3: sort top first names",
		`cat in/names.txt | cut -d ' ' -f 1 | sort | uniq -c | sort -rn`},
}

func main() {
	env := kumquat.NewEnv()
	registerInputs(env)
	sys := kumquat.New(env)
	ctx := context.Background()

	for _, p := range puzzles {
		plan, err := sys.Parallelize(ctx, p.src+"\n")
		if err != nil {
			log.Fatalf("%s: %v", p.title, err)
		}
		par, total, elim := plan.Counts()

		serialRep, err := plan.Execute(ctx, kumquat.WithMode(kumquat.Serial))
		if err != nil {
			log.Fatal(err)
		}
		want, serial := serialRep.Output, serialRep.Wall
		rep, err := plan.Execute(ctx, kumquat.WithParallelism(8))
		if err != nil {
			log.Fatal(err)
		}
		got, ptime := rep.Output, rep.Wall

		answer, _, _ := strings.Cut(got, "\n")
		fmt.Printf("%-32s %d/%d parallel (%d eliminated)  serial %6v  8-way %6v (%.2fx)  ok=%v\n",
			p.title, par, total, elim,
			serial.Round(time.Millisecond), ptime.Round(time.Millisecond),
			float64(serial)/float64(ptime), got == want)
		fmt.Printf("    answer: %s\n", answer)
	}
}

func registerInputs(env *kumquat.Env) {
	rng := rand.New(rand.NewSource(11))
	var chess strings.Builder
	pieces := []string{"K", "Q", "R", "B", "N", ""}
	move := func() string {
		s := pieces[rng.Intn(len(pieces))]
		if rng.Intn(3) == 0 {
			s += "x"
		}
		return s + fmt.Sprintf("%c%d", 'a'+rng.Intn(8), 1+rng.Intn(8))
	}
	for i := 0; i < 40000; i++ {
		for m := 1; m <= 3; m++ {
			if m > 1 {
				chess.WriteByte(' ')
			}
			fmt.Fprintf(&chess, "%d.%s %s", m, move(), move())
		}
		chess.WriteByte('\n')
	}
	env.Register("in/chess.txt", chess.String())

	var hist strings.Builder
	orgs := []string{"AT&T Bell Labs", "Berkeley CSRG", "MIT"}
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&hist, "%s\tpdp%d\tv%d\t%d\n",
			orgs[rng.Intn(len(orgs))], 7+rng.Intn(5), 1+rng.Intn(10), 1969+rng.Intn(25))
	}
	env.Register("in/history.tsv", hist.String())

	words := []string{"the", "internationalization", "light", "sea",
		"incomprehensibilities", "wind", "counterrevolutionaries", "dark"}
	var text strings.Builder
	for i := 0; i < 40000; i++ {
		for j := 0; j < 6; j++ {
			if j > 0 {
				text.WriteByte(' ')
			}
			text.WriteString(words[rng.Intn(len(words))])
		}
		text.WriteByte('\n')
	}
	env.Register("in/text.txt", text.String())

	first := []string{"Ken", "Dennis", "Brian", "Rob", "Doug"}
	last := []string{"Thompson", "Ritchie", "Kernighan", "Pike", "McIlroy"}
	var names strings.Builder
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&names, "%s %s\n", first[rng.Intn(len(first))], last[rng.Intn(len(last))])
	}
	env.Register("in/names.txt", names.String())
}
