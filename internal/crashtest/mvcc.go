package crashtest

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"potgo/internal/lincheck"
	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

// The MVCC campaign crashes a snapshot-read workload mid-flight while an
// epoch-reclamation goroutine concurrently sweeps superseded versions, and
// proves recovery lands on a state consistent with the acknowledged
// operations — with every post-recovery read served through the reseeded
// snapshot mirror (a dangling version reference would surface as a wrong
// value or a failed walk).
//
// The verification protocol is the journaled-counter protocol (see
// verify.go), carried by each KV shard's journal and op counter.
//
// Point 0 stays unarmed: it measures the persistence-event span for crash-
// point sampling AND records a full snapshot-isolation history (writes +
// epoch-pinned reads) checked with lincheck.CheckSI — the live proof that
// the snapshot path is honest. The stale-read mutation mode freezes pins
// at a stale epoch instead of arming crashes; the same checker must then
// report a violation, or the harness is proven unable to catch the bug it
// exists for.

type mvccWorld struct {
	opt   CampaignOptions
	sh    *pmem.Sharded
	kv    *objstore.KV
	acked []uint64 // committed writes per KV shard
	// reads and reclaims count the run's snapshot reads and reclamation
	// sweeps.
	reads, reclaims uint64
}

func buildMVCCWorld(opt CampaignOptions) (*mvccWorld, error) {
	sh, err := pmem.NewSharded(pmem.NewStore(), opt.Shards, int64(opt.Seed))
	if err != nil {
		return nil, err
	}
	kv, err := objstore.CreateKV(sh, "mv")
	if err != nil {
		return nil, err
	}
	kv.EnableJournal()
	return &mvccWorld{opt: opt, sh: sh, kv: kv}, nil
}

func (w *mvccWorld) domain() *nvmsim.Domain { return w.sh.Heap().NV }

func (w *mvccWorld) close() {}

// run drives the workload; the unarmed baseline also records its
// snapshot-isolation history and proves it consistent.
func (w *mvccWorld) run(baseline bool) (bool, error) {
	if !baseline {
		return w.runWorkers(nil)
	}
	hist := &mvHistory{rec: lincheck.NewRecorder()}
	if _, err := w.runWorkers(hist); err != nil {
		return false, err
	}
	if err := lincheck.CheckSI(hist.writes, hist.reads); err != nil {
		return false, fmt.Errorf("baseline snapshot reads not SI-consistent: %w", err)
	}
	return false, nil
}

// mvHistory collects the SI history of a recorded (unarmed) run.
type mvHistory struct {
	mu     sync.Mutex
	writes []lincheck.SIWrite
	reads  []lincheck.SIRead
	rec    *lincheck.Recorder
}

// runWorkers drives puts/deletes/snapshot gets/scans until every worker
// finishes or the domain crashes, with a reclamation goroutine sweeping the
// whole time. hist is non-nil only for unarmed recorded runs (a crashed
// worker's history would contain in-flight writes the checker cannot
// attribute).
func (w *mvccWorld) runWorkers(hist *mvHistory) (bool, error) {
	opt := w.opt
	w.acked = make([]uint64, opt.Shards)
	stopReclaim := make(chan struct{})
	var reclaimWG sync.WaitGroup
	reclaimWG.Add(1)
	go func() {
		defer reclaimWG.Done()
		for {
			w.sh.ReclaimVersions()
			w.reclaims++
			select {
			case <-stopReclaim:
				return
			default:
				runtime.Gosched() // keep the sweep loop from starving workers
			}
		}
	}()
	defer func() {
		close(stopReclaim)
		reclaimWG.Wait()
	}()

	return runWorkers(w.domain(), opt.Workers, func(wi int, fail func(string, error) bool) {
		rng := rand.New(rand.NewSource(int64(mix64(opt.Seed ^ uint64(wi+1)))))
		var scanBuf []pds.KV
		var localW []lincheck.SIWrite
		var localR []lincheck.SIRead
		for i := 0; i < opt.OpsPerWorker; i++ {
			key := uint64(rng.Intn(opt.KeySpace) + 1)
			switch rng.Intn(8) {
			case 0, 1, 2: // put
				val := uint64(wi+1)<<32 | uint64(i+1)
				var p lincheck.Pending
				if hist != nil {
					p = hist.rec.Begin(wi, key)
				}
				if _, err := w.kv.Put(key, val); fail("Put", err) {
					return
				}
				atomic.AddUint64(&w.acked[key%uint64(opt.Shards)], 1)
				if hist != nil {
					op := hist.rec.End(p, val)
					localW = append(localW, lincheck.SIWrite{Key: key, Val: val, Call: op.Call, Ret: op.Ret})
				}
			case 3: // delete
				var p lincheck.Pending
				if hist != nil {
					p = hist.rec.Begin(wi, key)
				}
				if _, err := w.kv.Delete(key); fail("Delete", err) {
					return
				}
				atomic.AddUint64(&w.acked[key%uint64(opt.Shards)], 1)
				if hist != nil {
					op := hist.rec.End(p, nil)
					localW = append(localW, lincheck.SIWrite{Key: key, Del: true, Call: op.Call, Ret: op.Ret})
				}
			case 4, 5, 6: // snapshot get
				var p lincheck.Pending
				if hist != nil {
					p = hist.rec.Begin(wi, key)
				}
				val, found, err := w.kv.Get(key)
				if fail("Get", err) {
					return
				}
				atomic.AddUint64(&w.reads, 1)
				if hist != nil {
					op := hist.rec.End(p, val)
					localR = append(localR, lincheck.SIRead{
						Worker: wi,
						Obs:    []lincheck.SIObs{{Key: key, Val: val, Found: found}},
						Call:   op.Call, Ret: op.Ret,
					})
				}
			case 7: // snapshot scan
				var p lincheck.Pending
				if hist != nil {
					p = hist.rec.Begin(wi, 0)
				}
				var err error
				scanBuf, err = w.kv.ScanAppend(scanBuf, 0, opt.KeySpace+64)
				if fail("Scan", err) {
					return
				}
				atomic.AddUint64(&w.reads, 1)
				if hist != nil {
					op := hist.rec.End(p, nil)
					got := make(map[uint64]uint64, len(scanBuf))
					for _, kvp := range scanBuf {
						got[kvp.Key] = kvp.Val
					}
					obs := make([]lincheck.SIObs, 0, opt.KeySpace)
					for k := uint64(1); k <= uint64(opt.KeySpace); k++ {
						if v, ok := got[k]; ok {
							obs = append(obs, lincheck.SIObs{Key: k, Val: v, Found: true})
						} else {
							obs = append(obs, lincheck.SIObs{Key: k})
						}
					}
					localR = append(localR, lincheck.SIRead{Worker: wi, Obs: obs, Call: op.Call, Ret: op.Ret})
				}
			}
		}
		if hist != nil {
			hist.mu.Lock()
			hist.writes = append(hist.writes, localW...)
			hist.reads = append(hist.reads, localR...)
			hist.mu.Unlock()
		}
	})
}

// verify power-cycles the world, reattaches (which reseeds the snapshot
// mirror from the recovered bytes), and runs the journaled-counter
// protocol per shard, reading the recovered contents back entirely through
// the snapshot path: a dangling or missing version reference surfaces as a
// wrong value, a spurious miss, or an inconsistent scan.
func (w *mvccWorld) verify(pol nvmsim.Policy, _ bool, sum *CampaignSummary) error {
	for _, a := range w.acked {
		sum.AckedOps += a
	}
	sum.SnapshotReads += w.reads
	sum.Reclaims += w.reclaims
	if _, err := w.sh.Crash(pol); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	kv2, err := objstore.OpenKV(w.sh, "mv")
	if err != nil {
		return fmt.Errorf("reattach: %w", err)
	}
	total, err := kv2.Check()
	if err != nil {
		return fmt.Errorf("structure invariants: %w", err)
	}
	model, err := kvPrefixModel(w.kv, kv2, w.opt.Shards, w.acked)
	if err != nil {
		return err
	}
	if total != len(model) {
		return fmt.Errorf("%d keys recovered, committed prefixes replay to %d", total, len(model))
	}
	return checkModel(model, w.opt.KeySpace, kv2.Get, func() ([]pds.KV, error) {
		return kv2.Scan(0, w.opt.KeySpace+64)
	})
}

// RunMVCC runs the MVCC crash campaign. With MutateStaleRead set it
// instead runs the bug-injection mode: pins frozen at a stale epoch, no
// crashes armed — the campaign MUST fail (via the SI checker) or the
// harness is useless; pair with potcrash -expect-failure.
func RunMVCC(opt CampaignOptions) (CampaignSummary, error) {
	if err := opt.validate("mvcc"); err != nil {
		return CampaignSummary{}, err
	}
	if opt.MutateStaleRead {
		return runMVCCStaleMutation(opt)
	}
	return runSampled("mvcc", opt, 0x3c, func(int) (pointWorld, error) { return buildMVCCWorld(opt) })
}

// runMVCCStaleMutation preloads the store, freezes snapshot pins at the
// preload epoch, runs the recorded workload, and finishes with a
// deterministic probe (overwrite then read) that is guaranteed stale. The
// SI checker must reject the history; its error is the campaign's.
func runMVCCStaleMutation(opt CampaignOptions) (CampaignSummary, error) {
	sum := CampaignSummary{Points: 1, Completed: 1}
	w, err := buildMVCCWorld(opt)
	if err != nil {
		return sum, err
	}
	hist := &mvHistory{rec: lincheck.NewRecorder()}
	preVal := func(key uint64) uint64 { return uint64(0xF)<<56 | key }
	for key := uint64(1); key <= uint64(opt.KeySpace); key++ {
		p := hist.rec.Begin(0, key)
		if _, err := w.kv.Put(key, preVal(key)); err != nil {
			return sum, fmt.Errorf("preload put %d: %w", key, err)
		}
		op := hist.rec.End(p, nil)
		hist.writes = append(hist.writes, lincheck.SIWrite{Key: key, Val: preVal(key), Call: op.Call, Ret: op.Ret})
	}

	w.sh.MVCC().MutateStaleReads()

	if _, err := w.runWorkers(hist); err != nil {
		return sum, fmt.Errorf("mutated workload: %w", err)
	}
	for _, a := range w.acked {
		sum.AckedOps += a
	}
	sum.SnapshotReads, sum.Reclaims = w.reads, w.reclaims

	// Deterministic probe: a committed overwrite followed by a read that
	// the frozen pin serves from the stale epoch.
	probeVal := uint64(0xE) << 56
	p := hist.rec.Begin(0, uint64(1))
	if _, err := w.kv.Put(1, probeVal); err != nil {
		return sum, fmt.Errorf("probe put: %w", err)
	}
	op := hist.rec.End(p, nil)
	hist.writes = append(hist.writes, lincheck.SIWrite{Key: 1, Val: probeVal, Call: op.Call, Ret: op.Ret})
	p = hist.rec.Begin(0, uint64(1))
	val, found, err := w.kv.Get(1)
	if err != nil {
		return sum, fmt.Errorf("probe get: %w", err)
	}
	op = hist.rec.End(p, val)
	hist.reads = append(hist.reads, lincheck.SIRead{
		Worker: 0,
		Obs:    []lincheck.SIObs{{Key: 1, Val: val, Found: found}},
		Call:   op.Call, Ret: op.Ret,
	})

	if err := lincheck.CheckSI(hist.writes, hist.reads); err != nil {
		opt.Obs.Counter("crashtest.mvcc.mutation_detected").Inc()
		return sum, fmt.Errorf("stale-read mutation detected (as it must be): %w", err)
	}
	return sum, nil
}
