package crashtest

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"potgo/internal/nvmsim"
	"potgo/internal/pmem"
)

// The concurrent campaign crashes a multi-worker workload on a Multi store
// mid-flight and proves recovery lands on a state consistent with the
// acknowledged operations, through the journaled-counter protocol (see
// verify.go) applied to each of the five structures. Transfers commit both
// halves in one multi-pool transaction, so a transfer id must appear in
// both durable prefixes or in neither.

// concurrentWorld is one fresh world: sharded heap + Multi store over a
// new store.
type concurrentWorld struct {
	opt   CampaignOptions
	sh    *pmem.Sharded
	m     *Multi
	acked []uint64 // acknowledged effective ops per structure
}

func (w *concurrentWorld) domain() *nvmsim.Domain { return w.sh.Heap().NV }

func (w *concurrentWorld) close() {}

func (w *concurrentWorld) run(bool) (bool, error) {
	nk := len(Kinds)
	w.acked = make([]uint64, nk)
	return runWorkers(w.domain(), w.opt.Workers, func(wi int, fail func(string, error) bool) {
		rng := rand.New(rand.NewSource(int64(mix64(w.opt.Seed ^ uint64(wi+1)))))
		for i := 0; i < w.opt.OpsPerWorker; i++ {
			kind := rng.Intn(nk)
			key := uint64(rng.Intn(w.opt.KeySpace) + 1)
			switch rng.Intn(5) {
			case 0, 1, 2:
				did, err := w.m.Add(kind, key)
				if fail("Add", err) {
					return
				}
				if did {
					atomic.AddUint64(&w.acked[kind], 1)
				}
			case 3:
				did, err := w.m.Remove(kind, key)
				if fail("Remove", err) {
					return
				}
				if did {
					atomic.AddUint64(&w.acked[kind], 1)
				}
			case 4:
				to := rng.Intn(nk)
				if to == kind {
					to = (to + 1) % nk
				}
				did, err := w.m.Transfer(kind, to, key)
				if fail("Transfer", err) {
					return
				}
				if did {
					atomic.AddUint64(&w.acked[kind], 1)
					atomic.AddUint64(&w.acked[to], 1)
				}
			}
		}
	})
}

// verify power-cycles the world under pol, reattaches, and runs the
// journaled-counter protocol on every structure.
func (w *concurrentWorld) verify(pol nvmsim.Policy, _ bool, sum *CampaignSummary) error {
	for _, a := range w.acked {
		sum.AckedOps += a
	}
	if _, err := w.sh.Crash(pol); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	m2, err := OpenMulti(w.sh, "cc")
	if err != nil {
		return fmt.Errorf("reattach: %w", err)
	}
	counts, err := m2.Check()
	if err != nil {
		return fmt.Errorf("structure invariants: %w", err)
	}
	if err := m2.CheckHeap(); err != nil {
		return fmt.Errorf("heap sweep: %w", err)
	}

	outIDs := make(map[uint64]bool)
	inIDs := make(map[uint64]bool)
	for kind, name := range Kinds {
		c, err := m2.Counter(kind)
		if err != nil {
			return err
		}
		prefix, err := journaledPrefix(w.m.Journal(kind), c, w.acked[kind])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		model := ReplayJournal(prefix, len(prefix))
		if counts[kind] != len(model) {
			return fmt.Errorf("%s: %d keys recovered, committed prefix replays to %d",
				name, counts[kind], len(model))
		}
		for key := uint64(1); key <= uint64(w.opt.KeySpace); key++ {
			has, err := m2.Has(kind, key)
			if err != nil {
				return err
			}
			if has != model[key] {
				return fmt.Errorf("%s key %d: present=%v after recovery, committed prefix says %v",
					name, key, has, model[key])
			}
		}
		for _, e := range prefix {
			switch e.Op {
			case OpXferOut:
				outIDs[e.XferID] = true
			case OpXferIn:
				inIDs[e.XferID] = true
			}
		}
	}
	// Transfer atomicity: a transfer's two halves commit together or not
	// at all, so the durable out- and in-sets are the same set of ids.
	for id := range outIDs {
		if !inIDs[id] {
			return fmt.Errorf("transfer %d: source half durable, destination half lost", id)
		}
	}
	for id := range inIDs {
		if !outIDs[id] {
			return fmt.Errorf("transfer %d: destination half durable, source half lost", id)
		}
	}
	return nil
}

// RunConcurrent runs the concurrent crash campaign: a fresh world per
// point, an armed crash mid-workload (point 0 stays unarmed to measure the
// event span and prove the quiescent store survives any policy), and the
// full verification protocol after every power cycle.
func RunConcurrent(opt CampaignOptions) (CampaignSummary, error) {
	if err := opt.validate("concurrent"); err != nil {
		return CampaignSummary{}, err
	}
	return runSampled("concurrent", opt, 0xcc, func(int) (pointWorld, error) {
		sh, err := pmem.NewSharded(pmem.NewStore(), opt.Shards, int64(opt.Seed))
		if err != nil {
			return nil, err
		}
		m, err := CreateMulti(sh, "cc")
		if err != nil {
			return nil, err
		}
		return &concurrentWorld{opt: opt, sh: sh, m: m}, nil
	})
}
