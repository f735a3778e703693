package crashtest

import (
	"bytes"
	"fmt"
	"math/rand"

	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
)

// The repair campaign proves the media-fault story end to end: a seeded
// workload settles a fault-tolerant KV, single-bit faults are injected
// into the durable AND cached bytes, a scrub pass repairs them, and the
// store must come back byte-for-byte identical to its pre-fault dump —
// with the logical contents re-checked key by key under VerifyOnRead.
// Optionally each round arms a power failure in the middle of the scrub
// itself: repairs are plain persistent writes of the true bytes, so a
// torn or dropped repair must be re-repairable after recovery.
type RepairOptions struct {
	// Seed drives the workload, the fault placement and the crash points.
	Seed uint64 `json:"seed"`
	// Shards is the sharded heap's lock-shard count.
	Shards int `json:"shards"`
	// Keys is the keyspace the workload settles before faults start.
	Keys int `json:"keys"`
	// Ops is the number of workload operations (puts/deletes) beyond the
	// initial fill.
	Ops int `json:"ops"`
	// K is the number of single-bit faults injected per round.
	K int `json:"k"`
	// Mode picks the fault flavor: detect (payload bits, caught by
	// VerifyOnRead) or silent (checksum words and parity lines, found
	// only by scrubbing).
	Mode pmem.CorruptMode `json:"mode"`
	// Rounds is the number of corrupt-scrub-verify cycles.
	Rounds int `json:"rounds"`
	// CrashMidScrub arms a power failure inside each round's scrub pass
	// (round 0 stays unarmed to measure the scrub's event span). After
	// the crash the world is recovered, re-scrubbed and verified as
	// usual.
	CrashMidScrub bool `json:"crash_mid_scrub"`
	// NoParity sabotages parity maintenance for a second overwrite pass
	// before the baseline — the CI mutation check: with stale parity the
	// campaign MUST fail (unrepairable faults), so a green run under
	// NoParity means the harness proves nothing.
	NoParity bool `json:"no_parity"`
	// Policies rotate across crash points.
	Policies []nvmsim.Kind `json:"-"`
	// Obs, when non-nil, receives campaign counters under
	// "crashtest.repair.".
	Obs *obs.Registry `json:"-"`
}

// DefaultRepairOptions returns the CI smoke configuration.
func DefaultRepairOptions() RepairOptions {
	return RepairOptions{
		Seed:     1,
		Shards:   4,
		Keys:     96,
		Ops:      200,
		K:        4,
		Mode:     pmem.CorruptDetect,
		Rounds:   3,
		Policies: []nvmsim.Kind{nvmsim.DropAll, nvmsim.KeepRandom, nvmsim.Torn},
	}
}

// RepairSummary reports one repair campaign.
type RepairSummary struct {
	Rounds         int `json:"rounds"`
	Injected       int `json:"injected"`
	Repaired       int `json:"repaired"`
	ParityRepaired int `json:"parity_repaired"`
	Unrepairable   int `json:"unrepairable"`
	// Fired counts rounds whose armed mid-scrub crash actually hit;
	// Completed counts armed rounds whose scrub finished first.
	Fired     int    `json:"fired"`
	Completed int    `json:"completed"`
	ScrubSpan uint64 `json:"scrub_event_span"`
}

// RunRepair runs the corrupt-scrub-verify campaign.
func RunRepair(opt RepairOptions) (RepairSummary, error) {
	if opt.Shards <= 0 || opt.Keys <= 0 || opt.K <= 0 || opt.Rounds <= 0 {
		return RepairSummary{}, fmt.Errorf("crashtest: repair options need positive shards/keys/k/rounds")
	}
	if len(opt.Policies) == 0 {
		opt.Policies = []nvmsim.Kind{nvmsim.DropAll}
	}
	count := func(name string) *obs.Counter { return opt.Obs.Counter("crashtest.repair." + name) }
	sum := RepairSummary{Rounds: opt.Rounds}

	sh, err := pmem.NewSharded(pmem.NewStore(), opt.Shards, int64(opt.Seed))
	if err != nil {
		return sum, err
	}
	kv, err := objstore.CreateKVFT(sh, "rp")
	if err != nil {
		return sum, err
	}

	// Seeded workload: fill the keyspace, then churn it. The model map is
	// the logical ground truth every verification pass replays.
	rng := rand.New(rand.NewSource(int64(mix64(opt.Seed ^ 0xfa01d))))
	model := make(map[uint64]uint64, opt.Keys)
	for k := 1; k <= opt.Keys; k++ {
		v := rng.Uint64()
		if _, err := kv.Put(uint64(k), v); err != nil {
			return sum, fmt.Errorf("fill Put(%d): %w", k, err)
		}
		model[uint64(k)] = v
	}
	churn := func(ops int) error {
		for i := 0; i < ops; i++ {
			key := uint64(rng.Intn(opt.Keys) + 1)
			if rng.Intn(5) == 0 {
				if _, err := kv.Delete(key); err != nil {
					return fmt.Errorf("Delete(%d): %w", key, err)
				}
				delete(model, key)
				continue
			}
			v := rng.Uint64()
			if _, err := kv.Put(key, v); err != nil {
				return fmt.Errorf("Put(%d): %w", key, err)
			}
			model[key] = v
		}
		return nil
	}
	if err := churn(opt.Ops); err != nil {
		return sum, err
	}
	if opt.NoParity {
		// Mutation check: from here on commits keep checksums current but
		// let the parity column go stale, so later faults in rewritten
		// lines are detectable yet unrepairable.
		sh.MutateNoParity(true)
		if err := churn(opt.Keys * 2); err != nil {
			return sum, err
		}
	}
	if err := sh.SyncAll(); err != nil {
		return sum, err
	}
	baseline := sh.Heap().Store.DumpBytes()
	sh.SetVerifyOnRead(true)
	h := sh.Heap()

	verify := func(round int) error {
		if err := sh.SyncAll(); err != nil {
			return err
		}
		dump := h.Store.DumpBytes()
		for name, want := range baseline {
			got, ok := dump[name]
			if !ok {
				return fmt.Errorf("round %d: pool %q missing from post-repair dump", round, name)
			}
			if !bytes.Equal(got, want) {
				off := 0
				for off < len(want) && off < len(got) && got[off] == want[off] {
					off++
				}
				return fmt.Errorf("round %d: pool %q diverges from baseline at byte %d", round, name, off)
			}
		}
		if err := checkModel(model, opt.Keys, kv.Get, nil); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		return nil
	}

	for round := 0; round < opt.Rounds; round++ {
		faults, err := sh.CorruptObjects(opt.K, opt.Mode, mix64(opt.Seed^uint64(round)^0xc0))
		if err != nil {
			return sum, fmt.Errorf("round %d: inject: %w", round, err)
		}
		sum.Injected += len(faults)

		armed := false
		if opt.CrashMidScrub && round > 0 {
			h.NV.Arm(h.NV.Events() + 1 + mix64(opt.Seed^uint64(round))%sum.ScrubSpan)
			armed = true
		}
		startE := h.NV.Events()
		var st pmem.ScrubStats
		crashed, err := catchCrash(func() (err error) {
			st, err = sh.ScrubAll()
			return err
		})
		if err != nil {
			return sum, fmt.Errorf("round %d: scrub: %w", round, err)
		}
		if round == 0 {
			sum.ScrubSpan = h.NV.Events() - startE
			if opt.CrashMidScrub && sum.ScrubSpan == 0 {
				return sum, fmt.Errorf("crashtest: baseline scrub produced no persistence events to crash into")
			}
		}
		h.NV.Disarm()
		if crashed {
			sum.Fired++
			count("fired").Inc()
			pol := nvmsim.Policy{
				Kind: opt.Policies[round%len(opt.Policies)],
				Seed: mix64(opt.Seed ^ uint64(round) ^ 0xcc),
			}
			if _, err := sh.Crash(pol); err != nil {
				return sum, fmt.Errorf("round %d: crash: %w", round, err)
			}
			// Mount-time reads (log replay, tree root priming) run before
			// the post-crash scrub has cleaned the media, so checksum
			// verification stands down across the reattach and is
			// re-armed once the scrub comes back clean — the
			// model-equality pass below still runs fully verified.
			sh.SetVerifyOnRead(false)
			kv, err = objstore.OpenKV(sh, "rp")
			if err != nil {
				return sum, fmt.Errorf("round %d: reattach: %w", round, err)
			}
			// Re-scrub from scratch: completed repairs are idempotent
			// (they rewrote the true bytes parity still vouches for),
			// torn ones are just corruption found again.
			st, err = sh.ScrubAll()
			if err != nil {
				return sum, fmt.Errorf("round %d: post-crash scrub: %w", round, err)
			}
			sh.SetVerifyOnRead(true)
			// The reattach may have cached root pointers read off corrupt
			// media; flush the volatile layer now that the bytes are true.
			if err := kv.Reprime(); err != nil {
				return sum, fmt.Errorf("round %d: reprime: %w", round, err)
			}
		} else if armed {
			sum.Completed++
			count("completed").Inc()
		}
		sum.Repaired += st.Repaired
		sum.ParityRepaired += st.ParityRepaired
		sum.Unrepairable += st.Unrepairable
		count("repaired").Add(uint64(st.Repaired))
		count("parity_repaired").Add(uint64(st.ParityRepaired))
		count("unrepairable").Add(uint64(st.Unrepairable))
		if st.Unrepairable > 0 {
			return sum, fmt.Errorf("round %d: %d unrepairable faults (injected %v)", round, st.Unrepairable, faults)
		}
		if err := verify(round); err != nil {
			return sum, err
		}
		count("rounds").Inc()
	}
	return sum, nil
}
