// Analytics reproduces the paper's mass-transit (COVID-19 bus telemetry)
// workload: the four analytics-mts scripts over synthetic CSV telemetry,
// executed serially and with 8-way optimized data parallelism.
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

var scripts = []struct{ name, src string }{
	{"vehicles per day",
		`cat in/mts.csv | sed 's/T..:..:..//' | cut -d ',' -f 1,3 | sort -u | cut -d ',' -f 1 | sort | uniq -c | awk -v OFS="\t" "{print \$2,\$1}"`},
	{"vehicle days on road",
		`cat in/mts.csv | sed 's/T..:..:..//' | cut -d ',' -f 3,1 | sort -u | cut -d ',' -f 2 | sort | uniq -c | sort -k1n | awk -v OFS="\t" "{print \$2,\$1}"`},
	{"vehicle hours on road",
		`cat in/mts.csv | sed 's/T\(..\):..:../,\1/' | cut -d ',' -f 1,2,4 | sort -u | cut -d ',' -f 3 | sort | uniq -c | sort -k1n | awk -v OFS="\t" "{print \$2,\$1}"`},
	{"hours monitored per day",
		`cat in/mts.csv | sed 's/T\(..\):..:../,\1/' | cut -d ',' -f 1,2 | sort -u | cut -d ',' -f 1 | sort | uniq -c | awk -v OFS="\t" "{print \$2,\$1}"`},
}

func main() {
	env := kumquat.NewEnv()
	env.Register("in/mts.csv", telemetry(120000))
	sys := kumquat.New(env)
	ctx := context.Background()

	for _, s := range scripts {
		plan, err := sys.Parallelize(ctx, s.src+"\n")
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
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
		got, parallel := rep.Output, rep.Wall

		fmt.Printf("%-26s %d/%d stages parallel, %d eliminated; serial %7v, 8-way %7v (%.2fx), correct=%v\n",
			s.name, par, total, elim,
			serial.Round(time.Millisecond), parallel.Round(time.Millisecond),
			float64(serial)/float64(parallel), got == want)
		firstLine, _, _ := strings.Cut(want, "\n")
		fmt.Printf("    first row: %s\n", firstLine)
	}
}

// telemetry generates bus-telemetry CSV: timestamp,line,vehicle,reading.
func telemetry(rows int) string {
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "2020-%02d-%02dT%02d:%02d:%02d,line%d,v%03d,r%d\n",
			1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			1+rng.Intn(20), 1+rng.Intn(40), rng.Intn(100))
	}
	return b.String()
}
