package harness

// ServeRecord is one potbench run against a potserve server, appended to a
// trajectory file (BENCH_serve.json) so successive PRs can track the
// network front-end's throughput and tail latency.
type ServeRecord struct {
	Provenance
	// GoMaxProcs completes the machine description: records taken at
	// different GOMAXPROCS are not comparable (a 1-P run serializes the
	// server and clients onto one scheduler thread), so the capture
	// conditions are part of the record.
	GoMaxProcs int `json:"go_max_procs,omitempty"`
	// Run configuration.
	Seed       uint64 `json:"seed"`
	Conns      int    `json:"conns"`
	OpsPerConn int    `json:"ops_per_conn"`
	Depth      int    `json:"pipeline_depth"`
	KeySpace   int    `json:"key_space"`
	ReadPct    int    `json:"read_pct"`
	Shards     int    `json:"shards"`
	InProcess  bool   `json:"in_process"`
	// Cluster is the replicated-member count when the run targeted an
	// in-process cluster through the routing client (0 = single server).
	// Cluster runs pay quorum replication on every write, so they form
	// their own trajectory.
	Cluster int `json:"cluster,omitempty"`
	// Snapshot records whether the in-process server's KV store served
	// reads from the MVCC snapshot mirror (false = latched baseline), so
	// snapshot and latched runs form separate trajectories.
	Snapshot bool `json:"snapshot,omitempty"`
	// Results.
	Ops         int     `json:"ops_total"`
	Errors      int     `json:"errors_total"`
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50us       float64 `json:"p50_us"`
	P95us       float64 `json:"p95_us"`
	P99us       float64 `json:"p99_us"`
}

// SameConfig reports whether two runs share a configuration.
func (a ServeRecord) SameConfig(b ServeRecord) bool {
	return a.Seed == b.Seed && a.Conns == b.Conns && a.OpsPerConn == b.OpsPerConn &&
		a.Depth == b.Depth && a.KeySpace == b.KeySpace && a.ReadPct == b.ReadPct &&
		a.Shards == b.Shards && a.InProcess == b.InProcess && a.Snapshot == b.Snapshot &&
		a.Cluster == b.Cluster
}
