package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// child runs one workload in its own process (re-exec), so peak RSS and
// GC state never leak from one workload into the next. It returns the
// parsed result line and the human-readable lines before it.
func child(ctx context.Context, cfg config, name string, seed int64, trace int) (*result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-workdir", cfg.workdir,
		"-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(out.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	var res result
	if err := json.Unmarshal([]byte(text[cut+1:]), &res); err != nil {
		if runErr != nil {
			return nil, text, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, text, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, text[:max(cut, 0)], nil
}

// runAll runs every workload twice — tracing off for the end-to-end
// metrics, then the traced run for the per-layer ones — and returns the
// process exit code: non-zero when any output differed from its
// reference.
func runAll(ctx context.Context, cfg config) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, text, err := child(ctx, cfg, w.name, cfg.seed, trace)
			fmt.Println(text)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// quartiles are Python's statistics.quantiles(values, n=4) (the default
// exclusive method), which the driver uses for its spreads.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA runs the full set twice — side A in workload order, side B in
// reverse — with `runs` seeds per side, and prints for every workload ×
// end-to-end metric both medians, their relative difference, each side's
// inter-quartile spread, the bound and a verdict: FAIL when B is worse
// than A by more than the bound, UNRESOLVED when the spread is wider
// than the bound (set-up time excepted, as in the driver), else PASS.
func runAA(ctx context.Context, cfg config, runs int) int {
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	code := 0
	for side := range sides {
		order := append([]workload(nil), workloads...)
		if side == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for r := 0; r < runs; r++ {
			for _, w := range order {
				res, text, err := child(ctx, cfg, w.name, cfg.seed+int64(r), 0)
				if err != nil {
					fmt.Println(text)
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				if !res.Correct {
					fmt.Println(text)
					code = 1
				}
				for name, v := range res.Metrics {
					k := key{w.name, name}
					sides[side][k] = append(sides[side][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "side %c run %d/%d %s done\n", 'A'+side, r+1, runs, w.name)
			}
		}
	}
	fmt.Printf("A/A seeds %d..%d, %d runs per side, %g s windows\n", cfg.seed, cfg.seed+int64(runs)-1, runs, cfg.seconds)
	fmt.Printf("%-16s %-12s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range e2eDefs {
			a, b := sides[0][key{w.name, d.Name}], sides[1][key{w.name, d.Name}]
			medA, spreadA := centre(a)
			medB, spreadB := centre(b)
			worse := (medB - medA) / medA
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			switch {
			case worse > d.Bound:
				verdict, code = "FAIL", 1
			case d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound:
				verdict = "UNRESOLVED"
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, medA, medB, 100*(medB-medA)/medA, 100*spreadA, 100*spreadB, 100*d.Bound, verdict)
		}
	}
	return code
}

// centre is a sample's median and its inter-quartile spread as a share
// of the median (0 for a single value).
func centre(v []float64) (med, spread float64) {
	if len(v) == 1 {
		return v[0], 0
	}
	q1, q2, q3 := quartiles(v)
	return q2, (q3 - q1) / q2
}
