package harness

import "slices"

// CrashRecord is one crash-injection campaign result, appended to a
// trajectory file (BENCH_crash.json) by cmd/potcrash so successive PRs can
// track the engine's coverage and the heap's crash-consistency record.
type CrashRecord struct {
	Provenance
	// Campaign configuration.
	Seed      uint64   `json:"seed"`
	Ops       int      `json:"ops"`
	MaxPoints int      `json:"max_points"`
	Policies  []string `json:"policies"`
	Targets   []string `json:"targets"`
	// Results.
	EventSpan   uint64  `json:"event_span_total"`
	Points      int     `json:"points_total"`
	Cases       int     `json:"cases_total"`
	Failures    int     `json:"failures_total"`
	WallSeconds float64 `json:"wall_seconds"`
}

// SameConfig reports whether two campaigns share a configuration.
func (a CrashRecord) SameConfig(b CrashRecord) bool {
	return a.Seed == b.Seed && a.Ops == b.Ops && a.MaxPoints == b.MaxPoints &&
		slices.Equal(a.Policies, b.Policies) && slices.Equal(a.Targets, b.Targets)
}
