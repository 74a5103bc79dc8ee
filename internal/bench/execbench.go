package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// wordfreqScript is the paper's §2 running example, the workload for the
// buffered-vs-streaming executor comparison.
const wordfreqScript = `cat in/wf.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn` + "\n"

// ExecModeResult is one executor configuration's measurement.
type ExecModeResult struct {
	Name     string  `json:"name"`
	Mode     string  `json:"mode"`
	K        int     `json:"k"`
	WallMS   float64 `json:"wall_ms"`
	BytesOut int64   `json:"bytes_out"`
}

// ExecComparison is the BENCH_exec.json payload: the wordfreq pipeline run
// through the buffered (serial, unoptimized-barrier) and streaming
// (optimized, pipelined) executors, with an output-agreement check.
type ExecComparison struct {
	Pipeline string           `json:"pipeline"`
	Scale    int              `json:"scale_lines"`
	Modes    []ExecModeResult `json:"modes"`
	Agree    bool             `json:"agree"`
}

// CompareExecutors measures buffered vs streaming execution of the
// wordfreq pipeline at the given input scale and parallelism degree. The
// context bounds every timed execution.
func CompareExecutors(ctx context.Context, scale, k int) (*ExecComparison, error) {
	if scale <= 0 {
		scale = 20000
	}
	if k <= 0 {
		k = 8
	}
	env := unix.DefaultEnv()
	env.FS.Register("in/wf.txt", genWordfreqInput(scale))
	syn := synth.New(env, synth.Options{Seed: 1})
	script, err := pipeline.ParseScript(wordfreqScript, nil)
	if err != nil {
		return nil, err
	}
	plan, err := pipeline.CompileContext(ctx, script.Pipelines[0], syn)
	if err != nil {
		return nil, err
	}

	cmp := &ExecComparison{Pipeline: "wordfreq", Scale: scale, Agree: true}
	configs := []struct {
		name string
		mode pipeline.Mode
		k    int
	}{
		{"serial-buffered", pipeline.ModeSerial, 1},
		{"unoptimized-parallel", pipeline.ModeUnoptimized, k},
		{"optimized-parallel", pipeline.ModeOptimized, k},
		{"pipelined-streaming", pipeline.ModePipelined, 1},
	}
	var want string
	for i, cfg := range configs {
		var out strings.Builder
		start := time.Now()
		_, err := plan.Execute(ctx, env, nil, &out, cfg.mode, cfg.k)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", cfg.name, err)
		}
		got := out.String()
		if i == 0 {
			want = got
		} else if got != want {
			cmp.Agree = false
		}
		cmp.Modes = append(cmp.Modes, ExecModeResult{
			Name:     cfg.name,
			Mode:     cfg.mode.String(),
			K:        cfg.k,
			WallMS:   float64(wall.Microseconds()) / 1000,
			BytesOut: int64(len(got)),
		})
	}
	return cmp, nil
}

// genWordfreqInput produces deterministic Zipf-flavoured prose.
func genWordfreqInput(lines int) string {
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
			b.WriteString(words[rng.Intn(len(words))])
		}
		b.WriteString(".\n")
	}
	return b.String()
}
