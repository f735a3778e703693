// Command potbench load-tests a potserve server: several client
// connections issue pipelined batches of get/put/delete requests, latencies
// land in internal/obs histograms, and the run's throughput and tail
// latencies can be appended to a BENCH_serve.json trajectory.
//
// With no -addr it brings up an in-process server on a loopback port first,
// so one command measures the full stack:
//
//	potbench -conns 8 -ops 20000 -depth 16 -bench BENCH_serve.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"potgo/internal/cluster"
	"potgo/internal/harness"
	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

func main() {
	var (
		addr       = flag.String("addr", "", "potserve address; empty starts an in-process server")
		conns      = flag.Int("conns", 4, "client connections (one worker goroutine each)")
		ops        = flag.Int("ops", 10000, "requests per connection")
		depth      = flag.Int("depth", 16, "pipeline depth (requests in flight per connection)")
		keySpace   = flag.Int("keyspace", 10000, "keys are drawn from [0, keyspace)")
		readPct    = flag.Int("read-pct", 50, "percentage of requests that are GETs (writes split 4:1 put:delete)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		shards     = flag.Int("shards", 8, "in-process server: heap and KV shards")
		latched    = flag.Bool("latched", false, "in-process server: serve reads through the latched path instead of MVCC snapshots (baseline for read-heavy comparisons)")
		clusterN   = flag.Int("cluster", 0, "bench an in-process N-node replicated cluster (>= 2) through the routing client instead of a single server; writes pay quorum replication")
		benchPath  = flag.String("bench", "", "append a trajectory record to this file (e.g. BENCH_serve.json)")
		metricsOut = flag.String("metrics-out", "", "write a JSON metrics snapshot to this file at exit")
		p99Gate    = flag.Float64("p99-gate", 0, "fail (exit 1) when p99 latency exceeds this many µs; 0 disables. Only meaningful against records taken at the same GOMAXPROCS")
	)
	flag.Parse()
	if *conns <= 0 || *ops <= 0 || *depth <= 0 || *keySpace <= 0 || *readPct < 0 || *readPct > 100 {
		fatal(fmt.Errorf("need positive conns/ops/depth/keyspace and read-pct in [0,100]"))
	}

	reg := obs.NewRegistry()
	target := *addr
	inProcess := target == ""
	var benchHeap *pmem.Heap
	var clAddrs []string
	if *clusterN > 0 {
		if !inProcess {
			fatal(fmt.Errorf("-cluster starts its own in-process members; drop -addr"))
		}
		cl, err := cluster.NewLocal(*clusterN, *shards, int64(*seed), reg)
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		clAddrs = cl.Addrs()
		fmt.Fprintf(os.Stderr, "potbench: in-process %d-node cluster on %s (%d shards each, quorum %d)\n",
			*clusterN, strings.Join(clAddrs, " "), *shards, cl.Topology().Quorum())
	} else if inProcess {
		sh, err := pmem.NewSharded(pmem.NewStore(), *shards, int64(*seed))
		if err != nil {
			fatal(err)
		}
		sh.Heap().AttachObs(reg)
		benchHeap = sh.Heap()
		create := objstore.CreateKV
		if *latched {
			create = objstore.CreateKVLatched
		}
		kv, err := create(sh, "potbench")
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		srv := potserve.Serve(ln, kv, reg)
		defer srv.Close()
		target = srv.Addr()
		mode := "snapshot reads"
		if *latched {
			mode = "latched reads"
		}
		fmt.Fprintf(os.Stderr, "potbench: in-process server on %s (%d shards, %s)\n", target, *shards, mode)
	}

	// Per-worker latency slices merge into exact percentiles afterwards;
	// the obs histogram feeds -metrics-out.
	hist := reg.Histogram("potbench.latency_us", 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
	lats := make([][]float64, *conns)
	errCounts := make([]int, *conns)
	workerErr := make([]error, *conns)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One batch executor per transport: the cluster path routes each
			// batch through the partitioning client; the single-server path
			// keeps the allocation-free PipelineAppend.
			var resps []potserve.Response
			var runBatch func([]potserve.Request) ([]potserve.Response, error)
			if len(clAddrs) > 0 {
				cc, err := cluster.DialCluster(clAddrs)
				if err != nil {
					workerErr[w] = err
					return
				}
				defer cc.Close()
				runBatch = cc.Pipeline
			} else {
				c, err := potserve.Dial(target)
				if err != nil {
					workerErr[w] = err
					return
				}
				defer c.Close()
				runBatch = func(reqs []potserve.Request) ([]potserve.Response, error) {
					var err error
					resps, err = c.PipelineAppend(reqs, resps)
					return resps, err
				}
			}
			rng := rand.New(rand.NewSource(int64(*seed) + int64(w)*0x9e3779b9))
			reqs := make([]potserve.Request, 0, *depth)
			lat := make([]float64, 0, *ops)
			for done := 0; done < *ops; {
				reqs = reqs[:0]
				for len(reqs) < *depth && done+len(reqs) < *ops {
					key := uint64(rng.Intn(*keySpace))
					switch {
					case rng.Intn(100) < *readPct:
						reqs = append(reqs, potserve.Request{Op: potserve.OpGet, Key: key})
					case rng.Intn(5) == 0:
						reqs = append(reqs, potserve.Request{Op: potserve.OpDel, Key: key})
					default:
						reqs = append(reqs, potserve.Request{Op: potserve.OpPut, Key: key, Val: rng.Uint64()})
					}
				}
				batchStart := time.Now()
				out, err := runBatch(reqs)
				if err != nil {
					workerErr[w] = err
					return
				}
				// Pipelined latency: each request in the batch waited the
				// batch's round trip.
				us := float64(time.Since(batchStart).Microseconds())
				for _, r := range out {
					lat = append(lat, us)
					hist.Observe(us)
					if r.Status == potserve.StatusErr {
						errCounts[w]++
					}
				}
				done += len(reqs)
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for w, err := range workerErr {
		if err != nil {
			fatal(fmt.Errorf("conn %d: %w", w, err))
		}
	}

	var all []float64
	failed := 0
	for w := range lats {
		all = append(all, lats[w]...)
		failed += errCounts[w]
	}
	sort.Float64s(all)
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	total := len(all)
	rate := float64(total) / wall

	fmt.Printf("potbench: %d conns x %d ops (depth %d, %d%% reads, keyspace %d, GOMAXPROCS %d): %.0f ops/s, p50 %.0fµs p95 %.0fµs p99 %.0fµs, %d errors (%.1fs)\n",
		*conns, *ops, *depth, *readPct, *keySpace, runtime.GOMAXPROCS(0), rate, pct(0.50), pct(0.95), pct(0.99), failed, wall)
	if *p99Gate > 0 && pct(0.99) > *p99Gate {
		fatal(fmt.Errorf("p99 %.0fµs exceeds gate %.0fµs", pct(0.99), *p99Gate))
	}

	if *benchPath != "" {
		rec := harness.ServeRecord{
			Provenance:  harness.NewProvenance(),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Seed:        *seed,
			Conns:       *conns,
			OpsPerConn:  *ops,
			Depth:       *depth,
			KeySpace:    *keySpace,
			ReadPct:     *readPct,
			Shards:      *shards,
			InProcess:   inProcess,
			Cluster:     *clusterN,
			Snapshot:    inProcess && !*latched,
			Ops:         total,
			Errors:      failed,
			WallSeconds: wall,
			OpsPerSec:   rate,
			P50us:       pct(0.50),
			P95us:       pct(0.95),
			P99us:       pct(0.99),
		}
		switch err := harness.AppendRecord(*benchPath, rec); {
		case err == nil:
			fmt.Printf("appended trajectory record to %s\n", *benchPath)
		case errors.Is(err, harness.ErrDuplicateRecord):
			fmt.Fprintf(os.Stderr, "potbench: %v (not recording)\n", err)
		default:
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if benchHeap != nil {
			benchHeap.PublishMetrics(reg)
		}
		if err := reg.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "potbench: %v\n", err)
	os.Exit(1)
}
