package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

// kvStore is a single-node server's store and its oracle.
type kvStore struct {
	sh *pmem.Sharded
	kv *objstore.KV
	m  model
}

// buildKV creates an 8-shard snapshot-read KV and preloads keys [0, n) in
// a seeded order with seeded non-zero values.
func buildKV(n int, seed uint64) (*kvStore, error) {
	sh, err := pmem.NewSharded(pmem.NewStore(), shards, int64(seed))
	if err != nil {
		return nil, err
	}
	kv, err := objstore.CreateKV(sh, "perfbench")
	if err != nil {
		return nil, err
	}
	m := make(model, n)
	r := preloadRand(seed)
	for _, k := range r.Perm(n) {
		v := r.Uint64() | 1
		created, err := kv.Put(uint64(k), v)
		if err != nil || !created {
			return nil, fmt.Errorf("preload key %d: created %t, %v", k, created, err)
		}
		m[k] = v
	}
	return &kvStore{sh: sh, kv: kv, m: m}, nil
}

// preloadRand drives a preload's key order and values.
func preloadRand(seed uint64) *rand.Rand { return rand.New(rand.NewSource(int64(seed) ^ 0x9e3779b9)) }

// setup builds the set-up setupReps times (once when tracing, where
// setup_s is not reported), discarding all but the last build, and returns
// that one with the median build time.
func setup[T any](cfg config, build func() (T, error), discard func(T)) (T, float64, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
			var zero T
			last = zero
		}
		runtime.GC() // the previous build is garbage; do not charge its collection
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// gensFor returns the per-connection generators of one phase.
func gensFor(cfg config, w workload, nkeys int) func(phase int) [conns]*gen {
	owned := ownedKeys(nkeys, cfg.seed)
	return func(phase int) (g [conns]*gen) {
		for c := range g {
			g[c] = newGen(w, owned[c], cfg.seed, c, phase)
		}
		return g
	}
}

func runKV(cfg config, w workload, tr *tracer, res *result) error {
	nkeys := cfg.scaled(float64(w.keys), 64)
	st, setupS, err := setup(cfg, func() (*kvStore, error) { return buildKV(nkeys, cfg.seed) }, func(*kvStore) {})
	if err != nil {
		return err
	}
	gens := gensFor(cfg, w, nkeys)

	reg := obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var be potserve.Backend = &potserve.KVBackend{KV: st.kv}
	if cfg.wrap != nil {
		be = cfg.wrap(be)
	}
	if tr != nil {
		be = &tracedBackend{inner: be, tr: tr, member: -1}
	}
	srv := potserve.ServeBackend(ln, be, reg)
	defer srv.Close()
	addr := srv.Addr()
	dial := func(int) (batcher, func(), error) { return pipelineBatcher(addr) }

	stop := cfg.profile()
	if tr == nil {
		closed := closedLoop(dial, gens(1), st.m, cfg.scaled(w.nominal*cfg.seconds, depth*conns)/conns, nil)
		stop()
		res.count(closed.ops, closed.failed, closed.firstErr)
		res.set("ops_per_s", closed.opsPerSec())
		res.set("setup_s", setupS)
		printPhase("closed", closed)
	} else {
		tracedKV(cfg, w, tr, st, reg, dial, addr, gens, res)
		stop()
	}
	srv.Close()
	res.set("live_heap_mb", liveHeapMB())
	res.count(checkKV(st.m, st.kv.Check, st.kv.Get))
	runtime.KeepAlive(st)
	return nil
}

// tracedKV runs the traced sequence, each phase a third of the measured
// time: an untraced closed-loop phase (the trace-overhead baseline, and the
// runtime counters), the same phase traced (spans and layer counters),
// then an untraced open-loop phase (the per-op latencies and the
// generator's lateness).
func tracedKV(cfg config, w workload, tr *tracer, st *kvStore, reg *obs.Registry,
	dial func(int) (batcher, func(), error), addr string, gens func(int) [conns]*gen, res *result) {
	closedPer := cfg.scaled(w.nominal*cfg.seconds/3, depth*conns) / conns
	openPer := cfg.scaled(w.rate*cfg.seconds/3, 64) / conns
	timeout := time.Duration(cfg.seconds*4+60) * time.Second
	grows := reg.Counter("potserve.wire.buf_grows")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	g0 := grows.Value()
	base := closedLoop(dial, gens(1), st.m, closedPer, nil)
	runtime.ReadMemStats(&ms1)
	res.count(base.ops, base.failed, base.firstErr)
	res.set("potserve.buf_grows", float64(grows.Value()-g0))
	res.set("runtime.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(base.ops)))
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))

	h := st.sh.Heap()
	hs0, ev0, fb0 := h.StatsSnapshot(), h.NV.Events(), st.kv.SnapshotFallbacks()
	tr.on.Store(true)
	traced := closedLoop(dial, gens(3), st.m, closedPer, tr)
	tr.on.Store(false)
	hs1, ev1, fb1 := h.StatsSnapshot(), h.NV.Events(), st.kv.SnapshotFallbacks()
	res.count(traced.ops, traced.failed, traced.firstErr)

	ex := tr.exec
	writes := float64(len(ex[potserve.OpPut]) + len(ex[potserve.OpDel]))
	reads := float64(len(ex[potserve.OpGet]) + len(ex[potserve.OpScan]))
	setServeLayers(res, tr, traced, base)
	res.set("objstore.get_ns_p50", 1e3*ex[potserve.OpGet].pct(0.5))
	res.set("objstore.get_ns_p99", 1e3*ex[potserve.OpGet].p99())
	res.set("objstore.scan_ns_p50", 1e3*ex[potserve.OpScan].pct(0.5))
	res.set("objstore.put_ns_p50", 1e3*ex[potserve.OpPut].pct(0.5))
	res.set("objstore.put_ns_p99", 1e3*ex[potserve.OpPut].p99())
	res.set("objstore.del_ns_p50", 1e3*ex[potserve.OpDel].pct(0.5))
	res.set("objstore.snapshot_fallbacks", float64(fb1-fb0))
	res.set("objstore.snapshot_read_frac", ratio(reads-float64(fb1-fb0), reads))
	setPmemLayers(res, hs0, hs1, writes)
	res.set("pmem.mvcc_max_chain", float64(st.sh.MVCC().MaxChainLen()))
	res.set("nvmsim.events_per_write", ratio(float64(ev1-ev0), writes))

	open := openLoop(addr, gens(2), st.m, w.rate, openPer, cfg.seed, timeout)
	res.count(open.ops, open.failed, open.firstErr)
	setLatencyLayers(res, open.lat)
	res.set("bench.gen_late_p99_us", open.late.pct(0.99))
	printPhase("closed-untraced", base)
	printPhase("closed-traced", traced)
	printPhase("open", open)
}

// setServeLayers sets the wire-layer and benchmark-health metrics of a
// traced closed-loop phase against its untraced baseline.
func setServeLayers(res *result, tr *tracer, traced, base phase) {
	ops := float64(traced.ops)
	res.set("potserve.rtt_ns_per_op", ratio(float64(tr.rootSum.Nanoseconds()), ops))
	res.set("potserve.self_ns_per_op", ratio(float64((tr.rootSum-tr.execSum).Nanoseconds()), ops))
	res.set("bench.trace_overhead_frac", 1-ratio(traced.opsPerSec(), base.opsPerSec()))
	res.set("bench.span_coverage", ratio(tr.rootSum.Seconds(), traced.wall.Seconds()*conns))
}

// setPmemLayers sets the heap counters per client write.
func setPmemLayers(res *result, a, b pmem.HeapStats, writes float64) {
	per := func(x, y uint64) float64 { return ratio(float64(y-x), writes) }
	res.set("pmem.tx_commits_per_write", per(a.TxCommits, b.TxCommits))
	res.set("pmem.undo_records_per_write", per(a.UndoRecords, b.UndoRecords))
	res.set("pmem.undo_bytes_per_write", per(a.UndoBytes, b.UndoBytes))
	res.set("pmem.persists_per_write", per(a.Persists, b.Persists))
	res.set("pmem.allocs_per_write", per(a.Allocs, b.Allocs))
	res.set("pmem.frees_per_write", per(a.Frees, b.Frees))
	res.set("pmem.tx_aborts", float64(b.TxAborts-a.TxAborts))
	res.set("pmem.group_commit_batch", ratio(float64(b.GroupCommitTxns-a.GroupCommitTxns), float64(b.GroupCommits-a.GroupCommits)))
	res.set("pmem.mvcc_publishes_per_write", per(a.MVCCPublishes, b.MVCCPublishes))
	res.set("pmem.mvcc_live_versions", float64(b.MVCCPublishes-b.MVCCReclaimed))
}

// setLatencyLayers sets the per-op latency percentiles a phase supports.
func setLatencyLayers(res *result, lat map[byte]samples) {
	for _, op := range []byte{potserve.OpGet, potserve.OpPut, potserve.OpScan} {
		res.set(opName(op)+"_p50_us", lat[op].pct(0.5))
		res.set(opName(op)+"_p99_us", lat[op].p99())
	}
}

// printPhase prints a phase's numbers with their sample counts.
func printPhase(name string, p phase) {
	fmt.Printf("phase %s: %d ops in %.2fs = %.0f ops/s, %d failed", name, p.ops, p.wall.Seconds(), p.opsPerSec(), p.failed)
	for _, op := range []byte{potserve.OpGet, potserve.OpScan, potserve.OpPut, potserve.OpDel} {
		if s := p.lat[op]; s != nil {
			fmt.Printf("; %s p50 %.1fus p99 %.1fus (n=%d)", opName(op), s.pct(0.5), s.p99(), len(s))
		}
	}
	if len(p.late) > 0 {
		fmt.Printf("; sender late p50 %.1fus p99 %.1fus", p.late.pct(0.5), p.late.pct(0.99))
	}
	fmt.Println()
}
