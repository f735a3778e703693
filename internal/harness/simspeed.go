package harness

import "slices"

// SpeedRecord is one simulator-throughput measurement, appended to a
// trajectory file (BENCH_simspeed.json) by cmd/experiments so successive PRs
// can track simulation-speed regressions.
type SpeedRecord struct {
	Provenance
	// Parallel is the worker-pool width used.
	Parallel int `json:"parallel"`
	// Quick records whether the reduced (CI-sized) scale was used.
	Quick bool `json:"quick"`
	// Experiments lists the experiment ids regenerated.
	Experiments []string `json:"experiments"`
	// SimulatedInstructions is the total across all fresh runs.
	SimulatedInstructions uint64 `json:"simulated_instructions"`
	// WallSeconds is end-to-end wall-clock including rendering.
	WallSeconds float64 `json:"wall_seconds"`
	// SimulatedMIPS is SimulatedInstructions / WallSeconds / 1e6.
	SimulatedMIPS float64 `json:"simulated_mips"`
	// PerExperiment breaks wall-clock down by experiment (render phase;
	// simulation time is shared via the prefetched cache).
	PerExperiment []ExperimentTiming `json:"per_experiment,omitempty"`
}

// ExperimentTiming is one experiment's render wall-clock.
type ExperimentTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// SameConfig reports whether two measurements share a configuration
// (quick scale, pool width, experiment set).
func (a SpeedRecord) SameConfig(b SpeedRecord) bool {
	return a.Quick == b.Quick && a.Parallel == b.Parallel && slices.Equal(a.Experiments, b.Experiments)
}
