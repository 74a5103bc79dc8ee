package main

import (
	"embed"
	"fmt"
	"strings"
)

// The workload definitions are frozen files compiled into the binary, so
// the benchmark runs the same scripts from any working directory and a
// program-side edit cannot move a workload.
//
//go:embed workloads
var frozen embed.FS

// frozenScript returns one frozen single-pipeline script (no source, no
// trailing newline).
func frozenScript(name string) string {
	data, err := frozen.ReadFile("workloads/" + name)
	if err != nil {
		panic(err) // the file is compiled in; absence is a build bug
	}
	return strings.TrimSpace(string(data))
}

// frozenRows parses a frozen tab-separated table, skipping # comments.
func frozenRows(name string, fields int) [][]string {
	data, err := frozen.ReadFile("workloads/" + name)
	if err != nil {
		panic(err)
	}
	var rows [][]string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		row := strings.SplitN(line, "\t", fields)
		if len(row) != fields {
			panic(fmt.Sprintf("%s: malformed row %q", name, line))
		}
		rows = append(rows, row)
	}
	return rows
}

// specRow is one frozen plan-cold spec with its expected verdict.
type specRow struct {
	class   string // small | mid | large candidate space
	verdict string // "combiner: …", "rerun-only: …" or "none: …"
	spec    string
}

// frozenSpecs returns the frozen table; below scale 1 only the head of
// each class (two specs at least), for the self-test.
func frozenSpecs(scale float64) []specRow {
	var specs []specRow
	kept := map[string]int{}
	for _, r := range frozenRows("plan-cold.specs", 3) {
		if scale < 1 && kept[r[0]] >= scaled(16, scale, 2) {
			continue
		}
		kept[r[0]]++
		specs = append(specs, specRow{class: r[0], verdict: r[1], spec: r[2]})
	}
	return specs
}

// planRow is one frozen parallelize script with the plan counts
// (parallelized/total/eliminated) recorded when the benchmark was
// defined.
type planRow struct {
	counts string
	script string
}

func frozenPlans() []planRow {
	var plans []planRow
	for _, r := range frozenRows("serve-parallelize.scripts", 2) {
		plans = append(plans, planRow{counts: r[0], script: r[1]})
	}
	return plans
}
