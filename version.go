package kumquat

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"kumquat/internal/synth/cache"
)

// BuildInfo describes the running build and its effective defaults — the
// payload behind `kumquat version`, `kumquatd -version` and the daemon's
// GET /v1/version endpoint.
type BuildInfo struct {
	// Module is the Go module path ("kumquat").
	Module string `json:"module"`
	// Version is the module's build version ("(devel)" for a source
	// build, "unknown" when the binary carries no build info).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision and Modified carry VCS stamping when the build embeds it.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
	// GOMAXPROCS and NumCPU describe the process's effective parallelism.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// DefaultSynthWorkers is the synthesis worker-pool default
	// (Options.Workers == 0 resolves to this).
	DefaultSynthWorkers int `json:"default_synth_workers"`
	// DefaultCacheSize is the in-memory combiner LRU capacity every
	// engine runs (the synth defaultBudget's lruSize).
	DefaultCacheSize int `json:"default_cache_size"`
}

// Info reports the running build's BuildInfo.
func Info() BuildInfo {
	bi := BuildInfo{
		Module:              "kumquat",
		Version:             "unknown",
		GoVersion:           runtime.Version(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		NumCPU:              runtime.NumCPU(),
		DefaultSynthWorkers: runtime.GOMAXPROCS(0),
		DefaultCacheSize:    cache.DefaultCapacity,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Path != "" {
			bi.Module = info.Main.Path
		}
		if info.Main.Version != "" {
			bi.Version = info.Main.Version
		}
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				bi.Revision = s.Value
			case "vcs.modified":
				bi.Modified = s.Value == "true"
			}
		}
	}
	return bi
}

// Fprint renders the build surface in the CLIs' key: value form under
// the given binary name — the one rendering `kumquat version` and
// `kumquatd -version` share.
func (bi BuildInfo) Fprint(w io.Writer, binary string) {
	fmt.Fprintf(w, "%s %s (%s)\n", binary, bi.Version, bi.GoVersion)
	if bi.Revision != "" {
		fmt.Fprintf(w, "revision:      %s (modified=%v)\n", bi.Revision, bi.Modified)
	}
	fmt.Fprintf(w, "gomaxprocs:    %d (of %d CPUs)\n", bi.GOMAXPROCS, bi.NumCPU)
	fmt.Fprintf(w, "synth workers: %d (default)\n", bi.DefaultSynthWorkers)
	fmt.Fprintf(w, "combiner LRU:  %d entries (default)\n", bi.DefaultCacheSize)
}
