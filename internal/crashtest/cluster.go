package crashtest

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"

	"potgo/internal/cluster"
	"potgo/internal/lincheck"
	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/pds"
	"potgo/internal/potserve"
)

// The cluster campaign kills a WHOLE NODE mid-replication — an armed
// nvmsim event in the victim's persistence domain fires during a local
// apply, the node recovers the signal as its own death and tears its
// server down — lets the cluster fail over, and proves the surviving
// state is linearizable with the acknowledged history. The verification
// protocol stacks three layers:
//
//  1. Cluster-wide acked <= durable: every client write acknowledged
//     before the kill (quorum-acked) must appear in the survivors' merged
//     applied logs, in an (epoch, seq) order that embeds real time —
//     lincheck.CheckCluster, which also proves the epoch discipline and
//     single-ownership properties whose violation is split brain.
//  2. Replicated-state equality: folding the merged logs in (epoch, seq)
//     order must reproduce both the routed view (every Get/Scan through a
//     fresh client) and every survivor's local replica, and each
//     survivor's own KV journal must replay to the same state with
//     counter == journaled (the cluster-wide acked <= counter <=
//     journaled statement for the nodes that lived).
//  3. Victim-local recovery: the victim's heap is power-cycled under the
//     rotating policy and reattached; each shard's recovered op counter
//     must sit inside [0, journaled] and the journal prefix it names must
//     replay exactly to the recovered contents — the single-node
//     acked-prefix protocol, applied to the corpse.
//
// The split-brain mutation disables the followers' stale-epoch fence and
// stages a false-suspicion failover in which the deposed owner keeps
// serving; the campaign then REQUIRES CheckCluster to reject the merged
// logs (run under -expect-failure in CI).

// probeUIDBase tags post-failover probe writes; worker uids use the low
// 48 bits only, so the spaces cannot collide.
const probeUIDBase = uint64(1) << 56

func clusterWorkerUID(worker, op int) uint64 {
	return uint64(worker+1)<<24 | uint64(op+1)
}

// clusterDepth is the workers' pipeline depth: each worker sends its ops
// in routed batches of this many, so every owner executes a run of writes
// as one local transaction and one replication push, and an armed crash
// can land inside a multi-write run.
const clusterDepth = 4

// runClusterWorkers drives concurrent routing clients against the cluster
// until every worker finishes or gives up on the dying segment. Each
// worker pipelines its ops clusterDepth at a time and acknowledges every
// write its answered batch reports as done. Errors — a failed batch or a
// refused write — are forgiven once any member is dead (the machine died
// under the client) and fatal otherwise.
func runClusterWorkers(cl *cluster.Cluster, rec *lincheck.ClusterRecorder, opt CampaignOptions) error {
	anyDead := func() bool {
		for _, m := range cl.Members {
			if m.Node.Dead() {
				return true
			}
		}
		return false
	}
	errs := make([]error, opt.Workers)
	var wg sync.WaitGroup
	for wi := 0; wi < opt.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c, err := cluster.DialCluster(cl.Addrs())
			if err != nil {
				if !anyDead() {
					errs[wi] = fmt.Errorf("worker %d dial: %w", wi, err)
				}
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(mix64(opt.Seed ^ uint64(wi+101)))))
			reqs := make([]potserve.Request, 0, clusterDepth)
			pend := make([]lincheck.ClusterPending, 0, clusterDepth)
			for i := 0; i < opt.OpsPerWorker; i += clusterDepth {
				reqs, pend = reqs[:0], pend[:0]
				for j := i; j < min(i+clusterDepth, opt.OpsPerWorker); j++ {
					key := uint64(rng.Intn(opt.KeySpace) + 1)
					switch rng.Intn(10) {
					case 0: // delete
						reqs = append(reqs, potserve.Request{Op: potserve.OpDel, Key: key})
						pend = append(pend, rec.Begin(key, 0, true))
					case 1, 2: // read
						reqs = append(reqs, potserve.Request{Op: potserve.OpGet, Key: key})
						pend = append(pend, lincheck.ClusterPending{})
					default: // put, value = globally unique uid
						uid := clusterWorkerUID(wi, j)
						reqs = append(reqs, potserve.Request{Op: potserve.OpPut, Key: key, Val: uid})
						pend = append(pend, rec.Begin(key, uid, false))
					}
				}
				resps, err := c.Pipeline(reqs)
				if err != nil {
					if !anyDead() {
						errs[wi] = fmt.Errorf("worker %d batch at op %d: %w", wi, i, err)
						return
					}
					continue // casualty of the kill: the whole batch is unacked
				}
				for j, resp := range resps {
					switch {
					case resp.Status == potserve.StatusErr || resp.Status == potserve.StatusCorrupt:
						if !anyDead() {
							errs[wi] = fmt.Errorf("worker %d op %d (op code %d, key %d): status %d: %s",
								wi, i+j, reqs[j].Op, reqs[j].Key, resp.Status, resp.Msg)
							return
						}
					case reqs[j].Op != potserve.OpGet:
						rec.Acked(pend[j])
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// gatherEntries flattens every listed member's applied logs (all origins)
// into the verifier's entry stream.
func gatherEntries(members []*cluster.Member, total int) []lincheck.ClusterEntry {
	var out []lincheck.ClusterEntry
	for _, m := range members {
		for origin := 0; origin < total; origin++ {
			for _, a := range m.Node.AppliedLog(uint32(origin)) {
				out = append(out, lincheck.ClusterEntry{
					Origin:      a.Origin,
					Node:        m.Node.ID,
					Seq:         a.Seq,
					EntryEpoch:  a.Epoch,
					SenderEpoch: a.SenderEpoch,
					NodeEpoch:   a.NodeEpoch,
					Key:         a.Key,
					Val:         a.Val,
					Del:         a.Del,
				})
			}
		}
	}
	return out
}

// clusterWorld is one fresh N-node cluster whose victim member is killed
// by the point's armed crash.
type clusterWorld struct {
	opt       CampaignOptions
	cl        *cluster.Cluster
	victimIdx int
	rec       *lincheck.ClusterRecorder
}

func (w *clusterWorld) victim() *cluster.Member { return w.cl.Members[w.victimIdx] }

func (w *clusterWorld) domain() *nvmsim.Domain { return w.victim().Sh.Heap().NV }

func (w *clusterWorld) close() { w.cl.Close() }

func (w *clusterWorld) run(bool) (bool, error) {
	w.rec = lincheck.NewClusterRecorder()
	err := runClusterWorkers(w.cl, w.rec, w.opt)
	return w.victim().Node.Dead(), err
}

// verify fails over a killed victim (or quiesces a drained cluster) and
// runs the three-layer protocol.
func (w *clusterWorld) verify(pol nvmsim.Policy, fired bool, sum *CampaignSummary) error {
	opt, cl, victim := w.opt, w.cl, w.victim()
	survivors := make([]*cluster.Member, 0, opt.Nodes)
	for i, m := range cl.Members {
		if i != w.victimIdx {
			survivors = append(survivors, m)
		}
	}
	if fired {
		// The kill hit mid-replication: fail over, then prove the moved
		// segment accepts writes at the new epoch (the probes join the
		// acknowledged history the verifier audits).
		if err := cl.Failover(victim.Node.ID); err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		pc, err := cluster.DialCluster(cl.Addrs())
		if err != nil {
			return fmt.Errorf("probe dial: %w", err)
		}
		defer pc.Close()
		for key := uint64(1); key <= uint64(opt.KeySpace) && key <= 4; key++ {
			uid := probeUIDBase | key
			p := w.rec.Begin(key, uid, false)
			if _, err := pc.Put(key, uid); err != nil {
				return fmt.Errorf("probe put %d after failover: %w", key, err)
			}
			w.rec.Acked(p)
		}
	} else {
		// Nothing died: quiesce replication so the full-replication
		// equality checks below are meaningful, and audit all members.
		if err := cl.Sync(); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		survivors = append(survivors, victim)
	}
	writes := w.rec.Writes()
	sum.AckedOps += uint64(len(writes))

	// Layer 1: acked-prefix linearizability over the merged logs.
	entries := gatherEntries(survivors, opt.Nodes)
	if err := lincheck.CheckCluster(writes, entries); err != nil {
		return err
	}
	// Layer 2: replayed model == routed view == every survivor replica.
	model := lincheck.ReplayCluster(entries)
	if err := verifyClusterState(cl, survivors, model, opt); err != nil {
		return err
	}
	// Layer 3: the victim's corpse recovers to a committed prefix.
	if fired {
		return verifyVictimLocal(victim, w.victimIdx, pol, opt)
	}
	return nil
}

// verifyClusterState checks layer 2: the replayed model against the routed
// view, every survivor's local replica, and every survivor's KV journal.
func verifyClusterState(cl *cluster.Cluster, survivors []*cluster.Member, model map[uint64]uint64, opt CampaignOptions) error {
	c, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return fmt.Errorf("verify dial: %w", err)
	}
	defer c.Close()
	scan := func() ([]pds.KV, error) { return c.Scan(0, opt.KeySpace+64) }
	if err := checkModel(model, opt.KeySpace, c.Get, scan); err != nil {
		return fmt.Errorf("routed view vs merged logs: %w", err)
	}
	// Full replication: after catch-up every survivor's local replica and
	// its durable journal agree with the merged-log model.
	for _, m := range survivors {
		if err := checkModel(model, opt.KeySpace, m.Node.KV.Get, nil); err != nil {
			return fmt.Errorf("node %d local replica vs merged logs: %w", m.Node.ID, err)
		}
		replayed, err := kvPrefixModel(m.Node.KV, m.Node.KV, opt.Shards, nil)
		if err != nil {
			return fmt.Errorf("node %d: %w", m.Node.ID, err)
		}
		if !maps.Equal(replayed, model) {
			return fmt.Errorf("node %d: journal replays to %d keys, merged logs to %d, contents differ",
				m.Node.ID, len(replayed), len(model))
		}
	}
	return nil
}

// verifyVictimLocal checks layer 3: power-cycle the victim's heap under
// pol, reattach, and require each shard's recovered counter to name a
// journal prefix that replays exactly to the recovered contents.
func verifyVictimLocal(victim *cluster.Member, victimIdx int, pol nvmsim.Policy, opt CampaignOptions) error {
	if _, err := victim.Sh.Crash(pol); err != nil {
		return fmt.Errorf("victim crash: %w", err)
	}
	kv2, err := objstore.OpenKV(victim.Sh, fmt.Sprintf("node%d", victimIdx))
	if err != nil {
		return fmt.Errorf("victim reattach: %w", err)
	}
	total, err := kv2.Check()
	if err != nil {
		return fmt.Errorf("victim structure invariants: %w", err)
	}
	model, err := kvPrefixModel(victim.Node.KV, kv2, opt.Shards, make([]uint64, opt.Shards))
	if err != nil {
		return fmt.Errorf("victim: %w", err)
	}
	if total != len(model) {
		return fmt.Errorf("victim: %d keys recovered, committed prefixes replay to %d", total, len(model))
	}
	if err := checkModel(model, opt.KeySpace, kv2.Get, nil); err != nil {
		return fmt.Errorf("victim after recovery: %w", err)
	}
	return nil
}

// RunCluster runs the cluster crash campaign: a fresh N-node cluster per
// point, an armed whole-node kill mid-replication (point 0 stays unarmed
// to measure the victim's event span), failover, and the three-layer
// verification protocol. With MutateSplitBrain set it instead stages the
// two-primaries scenario and fails unless the verifier rejects it.
func RunCluster(opt CampaignOptions) (CampaignSummary, error) {
	if opt.Nodes < 3 {
		return CampaignSummary{}, fmt.Errorf("crashtest: cluster campaign needs >= 3 nodes, got %d", opt.Nodes)
	}
	if err := opt.validate("cluster"); err != nil {
		return CampaignSummary{}, err
	}
	if opt.MutateSplitBrain {
		return runClusterSplitBrain(opt)
	}
	return runSampled("cluster", opt, 0xcc, func(point int) (pointWorld, error) {
		cl, err := cluster.NewLocal(opt.Nodes, opt.Shards, int64(mix64(opt.Seed^uint64(point)^0xc1)), nil)
		if err != nil {
			return nil, err
		}
		return &clusterWorld{opt: opt, cl: cl, victimIdx: point % opt.Nodes}, nil
	})
}

// runClusterSplitBrain stages the two-primaries scenario over the seeded
// fence bug: a false-suspicion failover deposes a healthy owner but the
// new topology is withheld from it, so the old owner keeps coordinating
// writes for its segment at the old epoch while the new owner serves the
// same keys at the new epoch. With the stale-epoch fence disabled both
// sets of writes reach quorum; the merged logs must then FAIL the
// verifier (sender-behind-node applies, dual ownership). The campaign
// returns the verifier's rejection as its own error, for -expect-failure
// gates; a nil return means the bug slipped through.
func runClusterSplitBrain(opt CampaignOptions) (CampaignSummary, error) {
	sum := CampaignSummary{Points: 1}
	cl, err := cluster.NewLocal(opt.Nodes, opt.Shards, int64(mix64(opt.Seed^0xb5)), nil)
	if err != nil {
		return sum, err
	}
	defer cl.Close()

	rec := lincheck.NewClusterRecorder()
	old, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return sum, err
	}
	defer old.Close()
	for key := uint64(1); key <= uint64(opt.KeySpace); key++ {
		uid := clusterWorkerUID(0, int(key))
		p := rec.Begin(key, uid, false)
		if _, err := old.Put(key, uid); err != nil {
			return sum, fmt.Errorf("preload put %d: %w", key, err)
		}
		rec.Acked(p)
	}
	sum.AckedOps = uint64(opt.KeySpace)

	// Depose the owner of key 1 without telling it: it keeps serving its
	// old segment at the old epoch — the partitioned primary.
	deposed, ok := cl.Topology().Owner(1)
	if !ok {
		return sum, fmt.Errorf("split-brain: empty topology")
	}
	oldEpoch := cl.Topology().Epoch()
	cl.MutateSplitBrain()
	if err := cl.FailoverExcept(deposed, deposed); err != nil {
		return sum, fmt.Errorf("split-brain failover: %w", err)
	}

	// The stale client still routes key 1 to the deposed owner, which
	// accepts and replicates at the old epoch; the fenceless followers let
	// it through to quorum, so the client gets a real ack.
	if old.Topology().Epoch() != oldEpoch {
		return sum, fmt.Errorf("split-brain: stale client refreshed unexpectedly")
	}
	pa := rec.Begin(1, probeUIDBase|1, false)
	if _, err := old.Put(1, probeUIDBase|1); err != nil {
		return sum, fmt.Errorf("split-brain: deposed-owner put: %w", err)
	}
	rec.Acked(pa)

	// A fresh client sees the new topology and writes the same key through
	// the new owner — two primaries have now both acknowledged writes for
	// one key. Seed it away from the deposed member, which would hand out
	// its stale topology.
	var freshSeeds []string
	for _, m := range cl.Members {
		if m.Node.ID != deposed {
			freshSeeds = append(freshSeeds, m.Addr)
		}
	}
	fresh, err := cluster.DialCluster(freshSeeds)
	if err != nil {
		return sum, err
	}
	defer fresh.Close()
	pb := rec.Begin(1, probeUIDBase|2, false)
	if _, err := fresh.Put(1, probeUIDBase|2); err != nil {
		return sum, fmt.Errorf("split-brain: new-owner put: %w", err)
	}
	rec.Acked(pb)

	entries := gatherEntries(cl.Members, opt.Nodes)
	if err := lincheck.CheckCluster(rec.Writes(), entries); err != nil {
		return sum, fmt.Errorf("cluster verifier rejected the split-brain history (as it must): %w", err)
	}
	return sum, nil
}
