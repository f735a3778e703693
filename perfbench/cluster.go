package main

import (
	"fmt"
	"net"
	"runtime"

	"potgo/internal/cluster"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

// clusterNodes is the cluster size of cluster-write.
const clusterNodes = 3

// buildCluster starts an in-process cluster (cluster.NewLocal) and preloads
// keys [0, n) through a routing client. When wrap is set, every member is
// re-served around wrap(member id, node) on its own address before any
// client connects, so the topology and Cluster.Sync are unchanged.
func buildCluster(n int, seed uint64, reg *obs.Registry, wrap func(int, *cluster.Node) potserve.Backend) (cl *cluster.Cluster, m model, err error) {
	cl, err = cluster.NewLocal(clusterNodes, shards, int64(seed), reg)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			cl.Close()
		}
	}()
	if wrap != nil {
		for i, mem := range cl.Members {
			mem.Srv.Close()
			ln, err := net.Listen("tcp", mem.Addr)
			if err != nil {
				return nil, nil, fmt.Errorf("re-serve member %d: %w", i, err)
			}
			mem.Srv = potserve.ServeBackend(ln, wrap(i, mem.Node), reg)
		}
	}
	cc, err := cluster.DialCluster(cl.Addrs())
	if err != nil {
		return nil, nil, err
	}
	defer cc.Close()
	m = make(model, n)
	r := preloadRand(seed)
	perm := r.Perm(n)
	reqs := make([]potserve.Request, 0, depth)
	for i := 0; i < n; i += depth {
		reqs = reqs[:0]
		for _, k := range perm[i:min(i+depth, n)] {
			reqs = append(reqs, potserve.Request{Op: potserve.OpPut, Key: uint64(k), Val: r.Uint64() | 1})
		}
		resps, err := cc.Pipeline(reqs)
		if err != nil {
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		for j := range reqs {
			if err := m.check(0, &reqs[j], &resps[j]); err != nil {
				return nil, nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return cl, m, nil
}

type clusterSetup struct {
	cl *cluster.Cluster
	m  model
}

func runCluster(cfg config, w workload, tr *tracer, res *result) error {
	nkeys := cfg.scaled(float64(w.keys), 64)
	reg := obs.NewRegistry()
	var wrap func(int, *cluster.Node) potserve.Backend
	if cfg.wrap != nil || tr != nil {
		wrap = func(i int, n *cluster.Node) potserve.Backend {
			var be potserve.Backend = n
			if cfg.wrap != nil {
				be = cfg.wrap(be)
			}
			if tr != nil {
				be = &tracedBackend{inner: be, tr: tr, member: i}
			}
			return be
		}
	}
	st, setupS, err := setup(cfg, func() (clusterSetup, error) {
		cl, m, err := buildCluster(nkeys, cfg.seed, reg, wrap)
		return clusterSetup{cl, m}, err
	}, func(s clusterSetup) { s.cl.Close() })
	if err != nil {
		return err
	}
	defer st.cl.Close()
	gens := gensFor(cfg, w, nkeys)
	addrs := st.cl.Addrs()
	dial := func(int) (batcher, func(), error) {
		cc, err := cluster.DialCluster(addrs)
		if err != nil {
			return nil, nil, err
		}
		return cc.Pipeline, cc.Close, nil
	}
	stop := cfg.profile()
	if tr == nil {
		closed := closedLoop(dial, gens(1), st.m, cfg.scaled(w.nominal*cfg.seconds, depth*conns)/conns, nil)
		stop()
		res.count(closed.ops, closed.failed, closed.firstErr)
		res.set("ops_per_s", closed.opsPerSec())
		res.set("setup_s", setupS)
		fmt.Println("cluster latencies are closed-loop: each op is charged its routed batch's round trip")
		printPhase("closed", closed)
	} else {
		tracedCluster(tr, st, reg, dial, gens, cfg.scaled(w.nominal*cfg.seconds/2, depth*conns)/conns, res)
		stop()
	}
	res.set("live_heap_mb", liveHeapMB())

	// Quiesce replication, then every member must hold exactly the model.
	if err := st.cl.Sync(); err != nil {
		res.count(1, 1, fmt.Errorf("cluster sync: %w", err))
		return nil
	}
	for i, mem := range st.cl.Members {
		kv := mem.Node.KV
		a, f, err := checkKV(st.m, kv.Check, kv.Get)
		if err != nil {
			err = fmt.Errorf("member %d: %w", i, err)
		}
		res.count(a, f, err)
	}
	runtime.KeepAlive(st)
	return nil
}

// memberStats sums the members' heap counters and nvmsim events.
func memberStats(cl *cluster.Cluster) (pmem.HeapStats, uint64) {
	var sum pmem.HeapStats
	var ev uint64
	for _, m := range cl.Members {
		h := m.Sh.Heap()
		s := h.StatsSnapshot()
		sum.TxCommits += s.TxCommits
		sum.TxAborts += s.TxAborts
		sum.UndoRecords += s.UndoRecords
		sum.UndoBytes += s.UndoBytes
		sum.Persists += s.Persists
		sum.Allocs += s.Allocs
		sum.Frees += s.Frees
		sum.GroupCommits += s.GroupCommits
		sum.GroupCommitTxns += s.GroupCommitTxns
		sum.MVCCPublishes += s.MVCCPublishes
		sum.MVCCReclaimed += s.MVCCReclaimed
		ev += h.NV.Events()
	}
	return sum, ev
}

// tracedCluster is tracedKV's sequence for the cluster: untraced baseline,
// then the same closed loop traced. There is no open-loop phase.
func tracedCluster(tr *tracer, st clusterSetup, reg *obs.Registry, dial func(int) (batcher, func(), error),
	gens func(int) [conns]*gen, perConn int, res *result) {
	grows := reg.Counter("potserve.wire.buf_grows")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	g0 := grows.Value()
	base := closedLoop(dial, gens(1), st.m, perConn, nil)
	runtime.ReadMemStats(&ms1)
	res.count(base.ops, base.failed, base.firstErr)
	res.set("potserve.buf_grows", float64(grows.Value()-g0))
	res.set("runtime.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(base.ops)))
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	setLatencyLayers(res, base.lat)

	hs0, ev0 := memberStats(st.cl)
	tr.on.Store(true)
	traced := closedLoop(dial, gens(3), st.m, perConn, tr)
	tr.on.Store(false)
	hs1, ev1 := memberStats(st.cl)
	res.count(traced.ops, traced.failed, traced.firstErr)

	writes := float64(len(tr.writeExec))
	setServeLayers(res, tr, traced, base)
	setPmemLayers(res, hs0, hs1, writes)
	maxChain := 0
	for _, m := range st.cl.Members {
		if c := m.Sh.MVCC().MaxChainLen(); c > maxChain {
			maxChain = c
		}
	}
	res.set("pmem.mvcc_max_chain", float64(maxChain))
	res.set("nvmsim.events_per_write", ratio(float64(ev1-ev0), writes))
	res.set("cluster.write_exec_ns_p50", 1e3*tr.writeExec.pct(0.5))
	res.set("cluster.rep_apply_ns_per_entry", ratio(float64(tr.repTime.Nanoseconds()), float64(tr.repEnts)))
	res.set("cluster.rep_frames_per_write", ratio(float64(tr.repFrames), writes))
	res.set("cluster.rep_entries_per_frame", ratio(float64(tr.repEnts), float64(tr.repFrames)))
	res.set("cluster.commits_per_write", ratio(float64(hs1.TxCommits-hs0.TxCommits), writes))
	res.set("cluster.persists_per_write", ratio(float64(hs1.Persists-hs0.Persists), writes))
	res.set("cluster.redirects", float64(tr.redirects))
	printPhase("closed-untraced", base)
	printPhase("closed-traced", traced)
}
