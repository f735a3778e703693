package crashtest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"potgo/internal/nvmsim"
	"potgo/internal/obs"
)

// CampaignOptions configures the sampled-point campaigns: concurrent, mvcc
// and cluster. Each point builds a fresh world, arms one crash in its
// persistence domain, runs a multi-worker workload, power-cycles and
// verifies. Point 0 stays unarmed: it measures the event span the later
// points sample their crash from.
type CampaignOptions struct {
	// Seed drives the workload streams, the crash-point sampling and the
	// seeded policies.
	Seed uint64 `json:"seed"`
	// Nodes is the cluster campaign's member count (>= 3 so a quorum
	// survives one death); the single-heap campaigns ignore it.
	Nodes int `json:"nodes,omitempty"`
	// Workers is the number of concurrent client goroutines.
	Workers int `json:"workers"`
	// Shards is each heap's lock-shard count.
	Shards int `json:"shards"`
	// OpsPerWorker bounds each worker's operation count per point.
	OpsPerWorker int `json:"ops_per_worker"`
	// Points is the number of crash points sampled, the unarmed point 0
	// included.
	Points int `json:"points"`
	// KeySpace is the key range [1, KeySpace] the workload churns.
	KeySpace int `json:"key_space"`
	// Policies rotate across crash points.
	Policies []nvmsim.Kind `json:"-"`
	// MutateStaleRead makes the MVCC campaign freeze snapshot pins at a
	// stale epoch instead of arming crashes; the campaign then fails
	// unless its snapshot-isolation checker rejects the history.
	MutateStaleRead bool `json:"-"`
	// MutateSplitBrain makes the cluster campaign seed the stale-epoch-
	// fence bug and stage the two-primaries scenario; the campaign then
	// fails unless the verifier rejects the history.
	MutateSplitBrain bool `json:"-"`
	// Obs, when non-nil, receives campaign counters under
	// "crashtest.<campaign>." (fired, completed, points).
	Obs *obs.Registry `json:"-"`
}

// DefaultConcurrentOptions returns the CI smoke configuration of the
// concurrent and MVCC campaigns.
func DefaultConcurrentOptions() CampaignOptions {
	return CampaignOptions{
		Seed:         1,
		Workers:      4,
		Shards:       4,
		OpsPerWorker: 60,
		Points:       12,
		KeySpace:     24,
		Policies:     []nvmsim.Kind{nvmsim.DropAll, nvmsim.KeepRandom, nvmsim.Torn},
	}
}

// DefaultClusterOptions returns the CI smoke configuration of the cluster
// campaign.
func DefaultClusterOptions() CampaignOptions {
	return CampaignOptions{
		Seed:         1,
		Nodes:        3,
		Shards:       2,
		Workers:      3,
		OpsPerWorker: 40,
		Points:       6,
		KeySpace:     32,
		Policies:     []nvmsim.Kind{nvmsim.DropAll, nvmsim.KeepRandom, nvmsim.Torn},
	}
}

// CampaignSummary reports one sampled-point campaign.
type CampaignSummary struct {
	Points    int    `json:"points"`
	Fired     int    `json:"fired"`     // points where the armed crash actually hit
	Completed int    `json:"completed"` // points that drained before the arm point
	AckedOps  uint64 `json:"acked_ops"` // total acknowledged writes
	// SnapshotReads and Reclaims count the MVCC campaign's snapshot reads
	// and epoch-reclamation sweeps.
	SnapshotReads uint64 `json:"snapshot_reads,omitempty"`
	Reclaims      uint64 `json:"reclaim_sweeps,omitempty"`
	Span          uint64 `json:"event_span"`
}

// validate rejects options no campaign can run.
func (o CampaignOptions) validate(name string) error {
	if o.Workers <= 0 || o.Shards <= 0 || o.OpsPerWorker <= 0 || o.Points <= 0 || o.KeySpace <= 0 {
		return fmt.Errorf("crashtest: %s options need positive workers/shards/ops/points/keys", name)
	}
	return nil
}

// pointWorld is one campaign's fresh world at one sampled point. The
// shared loop in runSampled owns everything else: point selection,
// arming, policy rotation and the fired/completed tally.
type pointWorld interface {
	// domain is the persistence domain the point's crash is armed in.
	domain() *nvmsim.Domain
	// run drives the workload until it drains or the armed crash fires,
	// and reports whether it fired. The baseline run is unarmed.
	run(baseline bool) (fired bool, err error)
	// verify power-cycles what crashed under pol, checks recovery, and
	// adds the point's acknowledged work to sum.
	verify(pol nvmsim.Policy, fired bool, sum *CampaignSummary) error
	close()
}

// runSampled is the one sampled-point loop behind every campaign. name
// labels the campaign's counters; polSalt decorrelates its policy seeds
// from other campaigns'.
func runSampled(name string, opt CampaignOptions, polSalt uint64, build func(point int) (pointWorld, error)) (CampaignSummary, error) {
	if len(opt.Policies) == 0 {
		opt.Policies = []nvmsim.Kind{nvmsim.DropAll}
	}
	count := func(what string) { opt.Obs.Counter("crashtest." + name + "." + what).Inc() }
	sum := CampaignSummary{Points: opt.Points}
	for point := 0; point < opt.Points; point++ {
		w, err := build(point)
		if err != nil {
			return sum, err
		}
		err = runPoint(w, point, opt, polSalt, &sum, count)
		w.close()
		if err != nil {
			return sum, err
		}
		count("points")
	}
	return sum, nil
}

func runPoint(w pointWorld, point int, opt CampaignOptions, polSalt uint64, sum *CampaignSummary, count func(string)) error {
	nv := w.domain()
	kind := opt.Policies[point%len(opt.Policies)]
	pol := nvmsim.Policy{Kind: kind, Seed: mix64(opt.Seed ^ uint64(point) ^ polSalt)}
	startE := nv.Events()
	armAt := uint64(0)
	if point > 0 {
		armAt = startE + 1 + mix64(opt.Seed^uint64(point))%sum.Span
		nv.Arm(armAt)
	}
	fired, err := w.run(point == 0)
	nv.Disarm() // an unreached arm point must not fire during verification
	if err != nil {
		return fmt.Errorf("point %d: %w", point, err)
	}
	if point == 0 {
		if sum.Span = nv.Events() - startE; sum.Span == 0 {
			return fmt.Errorf("crashtest: baseline run produced no persistence events")
		}
	}
	if fired {
		sum.Fired++
		count("fired")
	} else {
		sum.Completed++
		count("completed")
	}
	if err := w.verify(pol, fired, sum); err != nil {
		return fmt.Errorf("point %d (arm=%d, policy=%s, fired=%v): %w", point, armAt, kind, fired, err)
	}
	return nil
}

// runWorkers runs body on n goroutines over one persistence domain and
// reports whether the armed crash fired. A worker the crash reaches
// unwinds with a CrashSignal: the primary signal is the crash itself (at
// most one), poisoned ones are workers that touched the dead domain
// afterwards. body reports each operation's error through fail, which
// tells the worker to stop. An error after the crash fired is a casualty,
// not a failure: the machine died under the worker (for instance, Begin
// refuses a pool whose mid-commit transaction only the power cycle
// clears).
func runWorkers(nv *nvmsim.Domain, n int, body func(wi int, fail func(what string, err error) bool)) (bool, error) {
	var primary atomic.Uint64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for wi := 0; wi < n; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				cs, ok := nvmsim.AsCrashSignal(r)
				if !ok {
					panic(r)
				}
				if !cs.Poisoned {
					primary.Add(1)
				}
			}()
			body(wi, func(what string, err error) bool {
				if err == nil {
					return false
				}
				if !nv.Poisoned() {
					errs[wi] = fmt.Errorf("worker %d %s: %w", wi, what, err)
				}
				return true
			})
		}(wi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return false, e
		}
	}
	if p := primary.Load(); p > 1 {
		return false, fmt.Errorf("%d primary crash signals, want at most 1", p)
	}
	return primary.Load() == 1, nil
}
