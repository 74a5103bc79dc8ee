package cluster

import (
	"sync/atomic"

	"kumquat/internal/server/api"
)

// Stats counts the failure-handling work of cluster dispatch. The
// coordinator keeps one per Execute call (surfaced in the execute
// trailer's ClusterReport) and one cumulative instance (surfaced as
// /metrics gauges). All fields are atomics: dispatch goroutines update
// them concurrently.
type Stats struct {
	// Shards counts logical shards dispatched (one per chunk per
	// parallel segment, whatever the attempt count).
	Shards atomic.Int64
	// RemoteRuns counts shards whose accepted result came from a worker;
	// LocalRuns counts shards that degraded to in-process execution.
	RemoteRuns atomic.Int64
	LocalRuns  atomic.Int64
	// Retries counts shard re-dispatches after failed attempts.
	Retries atomic.Int64
	// Speculations counts straggler duplicates launched;
	// SpeculationWins counts duplicates whose result arrived first.
	Speculations    atomic.Int64
	SpeculationWins atomic.Int64
	// Ejections and Readmissions count worker health transitions
	// triggered while this Stats instance was recording.
	Ejections    atomic.Int64
	Readmissions atomic.Int64
}

// Snapshot reads every counter once into the wire report (Workers and
// Healthy are the coordinator's to stamp).
func (s *Stats) Snapshot() api.ClusterReport {
	return api.ClusterReport{
		Shards:          s.Shards.Load(),
		RemoteRuns:      s.RemoteRuns.Load(),
		LocalRuns:       s.LocalRuns.Load(),
		Retries:         s.Retries.Load(),
		Speculations:    s.Speculations.Load(),
		SpeculationWins: s.SpeculationWins.Load(),
		Ejections:       s.Ejections.Load(),
		Readmissions:    s.Readmissions.Load(),
	}
}

// AddAll folds a finished run's counters into the cumulative totals.
func (s *Stats) AddAll(o *Stats) {
	snap := o.Snapshot()
	s.Shards.Add(snap.Shards)
	s.RemoteRuns.Add(snap.RemoteRuns)
	s.LocalRuns.Add(snap.LocalRuns)
	s.Retries.Add(snap.Retries)
	s.Speculations.Add(snap.Speculations)
	s.SpeculationWins.Add(snap.SpeculationWins)
	s.Ejections.Add(snap.Ejections)
	s.Readmissions.Add(snap.Readmissions)
}
