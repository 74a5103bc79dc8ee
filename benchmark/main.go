// Command benchmark is the repository's benchmark: five seeded,
// oracle-checked workloads, each measured end to end with tracing off
// and, in a separate traced run, layer by layer. See README.md.
//
//	go run ./benchmark --workload wf-append-rerun --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -seed 1          # every workload, both runs, in child processes
//	go run ./benchmark -seed 1 -aa      # two sets of runs of the same code, compared
//
// The last line of a single-workload run is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many times an end-to-end run sets the workload up;
// setup_s is the median.
const setupReps = 3

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		scale    = flag.Float64("scale", 1, "input size factor (the self-test runs at 0.01)")
		workdir  = flag.String("workdir", filepath.Join("benchmark", ".work"), "directory for generated files and span dumps")
		aa       = flag.Bool("aa", false, "run the full set twice (A/A) and compare every end-to-end metric with its bound")
		runs     = flag.Int("runs", 3, "with -aa: runs per side and workload, each with another seed")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		data, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the root of a checkout: %w", err))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	procs := runtime.NumCPU()
	k := min(procs, 4)
	runtime.GOMAXPROCS(k)
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, workdir: *workdir, k: k, procs: procs, setups: setupReps}

	switch {
	case *aa:
		os.Exit(runAA(ctx, cfg, *runs))
	case *name == "":
		os.Exit(runAll(ctx, cfg))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(ctx, os.Stdout, w, cfg)
	} else {
		res, err = runTraced(ctx, os.Stdout, w, cfg)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runEndToEnd sets the workload up cfg.setups times (setup_s is the
// median), measures one window with all tracing off on the last set-up,
// and reports every end-to-end metric.
func runEndToEnd(ctx context.Context, out io.Writer, w workload, cfg config) (*result, error) {
	var st state
	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = w.setup(ctx, cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer st.close()
	win, err := st.run(ctx, cfg.seconds, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":   median(setups).Seconds(),
		"op_p50_ms": ms(median(win.lat)),
		"ops_per_s": float64(win.done) / win.busy.Seconds(),
	}
	win.info = append(win.info, infoLine{"peak_rss_mb", rss, "MB"})
	res := &result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]value{}}
	fmt.Fprintf(out, "workload %s seed %d: %d ops attempted, %d failed (n = %d timed samples)\n", w.name, cfg.seed, win.attempted, win.failed, len(win.lat))
	for _, d := range e2eDefs {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	for _, l := range win.info {
		fmt.Fprintf(out, "  %-28s %14.4f %s (not gated)\n", l.name, l.value, l.unit)
	}
	fmt.Fprintf(out, "  %-28s %14.6f ratio (not gated)\n", "error_share", float64(win.failed)/float64(max(1, win.attempted)))
	if win.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", win.firstErr)
	}
	return res, validate(res.Metrics)
}

// runTraced sets the workload up once and runs its traced pass: spans
// around each public call, written to the work directory, plus every
// per-layer metric (0 for a layer the workload does not exercise).
func runTraced(ctx context.Context, out io.Writer, w workload, cfg config) (*result, error) {
	st, err := w.setup(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer st.close()
	tr := newTracer()
	lr, err := st.layers(ctx, tr, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	declared := map[string]bool{}
	res := &result{Correct: lr.failed == 0, Attempted: max(1, lr.attempted), Failed: lr.failed, Metrics: map[string]value{}}
	for _, d := range layerDefs {
		declared[d.Name] = true
		res.Metrics[d.Name] = value{lr.metrics[d.Name], d.Unit}
	}
	for name := range lr.metrics {
		if !declared[name] {
			return nil, fmt.Errorf("%s emitted undeclared per-layer metric %q", w.name, name)
		}
	}
	fmt.Fprintf(out, "workload %s seed %d traced: %d checks, %d failed\n", w.name, cfg.seed, lr.attempted, lr.failed)
	for _, d := range layerDefs {
		if v := lr.metrics[d.Name]; v != 0 {
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	tr.printSelfTimes(out)
	path := filepath.Join(cfg.workdir, "trace-"+w.name+".json")
	if err := tr.write(path, w.name, cfg.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	if lr.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", lr.firstErr)
	}
	return res, validate(res.Metrics)
}

// validate rejects values a consumer could not parse or compare.
func validate(ms map[string]value) error {
	for n, v := range ms {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", n, v.Value)
		}
	}
	return nil
}
