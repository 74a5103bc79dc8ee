package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// ioStages are the streaming stages the data-plane benchmark drives over
// the corpus: concat-class line mappers plus
// the field-kernel consumers. Each runs standalone through unix.Exec so
// the measurement isolates the per-line cost of the command substrate —
// reading, line scanning, field splitting, emission — from planner and
// combine overhead.
var ioStages = []string{
	"cat",
	"tr A-Z a-z",
	"grep light",
	"cut -c 1-24",
	"cut -d ' ' -f 1",
	"sed 's/light/dark/'",
	"wc -w",
}

// IOStageRun is one stage's streaming measurement over the corpus.
type IOStageRun struct {
	Spec  string `json:"spec"`
	Lines int    `json:"lines"`
	// BytesIn/BytesOut are the stream volumes of the best round.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// WallMS is the best-of-rounds wall time; MBPerSec derives from it.
	WallMS   float64 `json:"wall_ms"`
	MBPerSec float64 `json:"mb_per_sec"`
	// Allocs and AllocBytes are the best round's heap deltas
	// (runtime.MemStats — single process, so deltas are attributable);
	// AllocsPerLine is the gate figure: steady-state heap allocations per
	// input line.
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	AllocsPerLine float64 `json:"allocs_per_line"`
}

// IOIngest reports the corpus ingest measurement: the mmap (or fallback)
// of the host file and the cost of splitting the mapping k ways — the
// operations the zero-copy data plane claims are pointer arithmetic.
type IOIngest struct {
	// Mapped is true when the corpus came in through an OS memory mapping
	// rather than the read-into-buffer fallback.
	Mapped bool `json:"mapped"`
	// MapWallMS is the MapFile cost; ChunkWallMS the k-way line-aligned
	// split of the still-untouched mapping (textio.ChunkLines, k=64: its
	// 63 boundary probes are the mapping's first page faults).
	MapWallMS   float64 `json:"map_wall_ms"`
	ChunkWallMS float64 `json:"chunk_wall_ms"`
	// ChunkAllocs is the heap allocation count of the 64-way chunking —
	// O(k) slice headers, not O(bytes), when the plane is zero-copy.
	ChunkAllocs uint64 `json:"chunk_allocs"`
}

// IOComparison is the BENCH_io.json payload: per-stage streaming
// throughput and allocations/line over one corpus, plus the ingest
// figures and the allocation gate verdict.
type IOComparison struct {
	Scale       int          `json:"scale_lines"`
	CorpusBytes int64        `json:"corpus_bytes"`
	Rounds      int          `json:"rounds"`
	CPUs        int          `json:"cpus"`
	Ingest      IOIngest     `json:"ingest"`
	Stages      []IOStageRun `json:"stages"`
	// GateLimit is the allocations/line ceiling and GateStages the number
	// of streaming stages that met it; GatePass requires at least three.
	GateLimit  float64 `json:"gate_limit"`
	GateStages int     `json:"gate_stages"`
	GatePass   bool    `json:"gate_pass"`
}

// countWriter discards output while counting it, so stage measurement
// excludes sink costs.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// CompareIO measures the zero-copy data plane: it writes a genText corpus
// of `scale` lines to a host file, ingests it through MapFile +
// ChunkLines, and streams each ioStages entry over the mapped view
// measuring throughput and heap allocations per input line.
func CompareIO(ctx context.Context, scale int) (*IOComparison, error) {
	if scale <= 0 {
		scale = 200000
	}
	const rounds = 3
	dir, err := os.MkdirTemp("", "kqbench-io-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "corpus.txt")
	if err := writeIOCorpus(path, scale); err != nil {
		return nil, err
	}

	cmp := &IOComparison{
		Scale:     scale,
		Rounds:    rounds,
		CPUs:      runtime.NumCPU(),
		GateLimit: 2.0,
	}

	mapStart := time.Now()
	m, err := textio.MapFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: io corpus map: %w", err)
	}
	defer m.Close()
	cmp.Ingest.MapWallMS = float64(time.Since(mapStart).Microseconds()) / 1000
	cmp.Ingest.Mapped = m.Mapped()
	cmp.CorpusBytes = int64(m.Len())

	view, lines := m.View(), scale

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	chunkStart := time.Now()
	chunks := textio.ChunkLines(view, 64)
	cmp.Ingest.ChunkWallMS = float64(time.Since(chunkStart).Microseconds()) / 1000
	runtime.ReadMemStats(&after)
	cmp.Ingest.ChunkAllocs = after.Mallocs - before.Mallocs
	var total int64
	for _, c := range chunks {
		total += int64(len(c))
	}
	if total != cmp.CorpusBytes {
		return nil, fmt.Errorf("bench: io chunking lost bytes: %d of %d", total, cmp.CorpusBytes)
	}

	env := unix.DefaultEnv()
	for _, spec := range ioStages {
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			return nil, fmt.Errorf("bench: io stage %q: %w", spec, err)
		}
		run := IOStageRun{Spec: spec, Lines: lines, BytesIn: cmp.CorpusBytes}
		for r := 0; r < rounds; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sink := &countWriter{}
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			execErr := unix.Exec(ctx, cmd, strings.NewReader(view), sink)
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if execErr != nil {
				return nil, fmt.Errorf("bench: io stage %q: %w", spec, execErr)
			}
			if ms := float64(wall.Microseconds()) / 1000; run.WallMS == 0 || ms < run.WallMS {
				run.WallMS = ms
				run.BytesOut = sink.n
				run.Allocs = after.Mallocs - before.Mallocs
				run.AllocBytes = after.TotalAlloc - before.TotalAlloc
			}
		}
		if run.WallMS > 0 {
			run.MBPerSec = float64(run.BytesIn) / (1 << 20) / (run.WallMS / 1000)
		}
		if lines > 0 {
			run.AllocsPerLine = float64(run.Allocs) / float64(lines)
		}
		if run.AllocsPerLine <= cmp.GateLimit {
			cmp.GateStages++
		}
		cmp.Stages = append(cmp.Stages, run)
	}
	cmp.GatePass = cmp.GateStages >= 3
	return cmp, nil
}

// writeIOCorpus streams a deterministic genText-shaped corpus of `lines`
// lines to path without holding it all in memory: a 1 MiB seed block of
// prose repeats until the line budget is spent.
func writeIOCorpus(path string, lines int) error {
	rng := rand.New(rand.NewSource(0x10c0))
	const blockLines = 20000
	block := genText(rng, blockLines)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := io.Writer(f)
	for remaining := lines; remaining > 0; remaining -= blockLines {
		b := block
		if remaining < blockLines {
			b = genText(rng, remaining)
		}
		if _, err := io.WriteString(w, b); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
