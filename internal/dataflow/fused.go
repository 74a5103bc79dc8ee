package dataflow

import (
	"strings"

	"kumquat/internal/unix"
)

// FusedMapper is a fused region's composed command: the member stages'
// line mappers applied depth-first per input line, producing in one pass
// over a chunk exactly the bytes the staged execution produces in
// len(mappers) passes — without materializing any intermediate stream.
//
// It is itself a unix.LineMapper whose line function is the composed
// chain, and its Run equals the members' Run stage by stage, so a chunk
// and a live stream's block run it like any single command.
type FusedMapper struct {
	spec    string
	mappers []unix.LineMapper
}

// NewFusedMapper composes the given line mappers (in stage order) under a
// fused(...) spec built from the stage specs.
func NewFusedMapper(specs []string, mappers []unix.LineMapper) *FusedMapper {
	return &FusedMapper{
		spec:    "fused(" + strings.Join(specs, " | ") + ")",
		mappers: mappers,
	}
}

// Spec returns the composed spec, e.g. "fused(tr A-Z a-z | grep light)".
func (f *FusedMapper) Spec() string { return f.spec }

// Len reports how many stages the mapper fuses.
func (f *FusedMapper) Len() int { return len(f.mappers) }

// Run executes the fused pass over a whole chunk: the composed chain over
// its terminated lines, then an unterminated tail through each member's
// own Run in turn, since a member need not terminate it (tr does not).
// The result is the members' Run stage by stage: a line mapper's Run of
// whole lines is itself whole lines. The chain is composed once per call,
// so the executor can share one FusedMapper across parallel chunk
// goroutines.
func (f *FusedMapper) Run(input string) (string, error) {
	cut := strings.LastIndexByte(input, '\n') + 1
	out, tail := unix.RunLines(f, input[:cut]), input[cut:]
	if tail == "" {
		return out, nil
	}
	for _, m := range f.mappers {
		var err error
		if tail, err = m.Run(tail); err != nil {
			return "", err
		}
	}
	return out + tail, nil
}

// LineFunc composes the stage chain backwards from emit into one
// per-line function, each member owning its own scratch. Line mappers are
// line-independent and order-preserving, and every emitted line is fully
// processed by the downstream stages before the emitting stage sees the
// next one, so feeding each intermediate line onward immediately yields
// the same sequence as materializing each stage's full output — and each
// member's transient scratch views stay valid exactly as long as they
// are needed.
func (f *FusedMapper) LineFunc(emit unix.EmitFunc) unix.EmitFunc {
	for d := len(f.mappers) - 1; d >= 0; d-- {
		emit = f.mappers[d].LineFunc(emit)
	}
	return emit
}
