package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"potgo/internal/potserve"
)

// BenchmarkClusterPipelinedWrites drives a 3-node in-process cluster with
// two routing clients, each keeping a 16-deep pipeline of writes (90% put,
// 10% delete) over a preloaded keyspace. One iteration is a fixed 4096
// writes, so even -benchtime 1x measures a real run. Besides ns/op it
// reports the replication layer's own numbers, from the members' heap
// counters and the followers' REP counters:
//
//	ops/s              writes acknowledged per second
//	rep_entries/frame  log entries per REP frame a follower received
//	commits/write      local transactions, summed over all members
//	persists/write     persist calls, summed over all members
//
// Run alone with: go test ./internal/cluster -run '^$' -bench ClusterPipelined -cpu 1
func BenchmarkClusterPipelinedWrites(b *testing.B) {
	const (
		nodes     = 3
		clients   = 2
		depth     = 16
		keys      = 4096
		opsPerRun = 4096
	)
	cl, err := NewLocal(nodes, 8, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ccs := make([]*Client, clients)
	for i := range ccs {
		if ccs[i], err = DialCluster(cl.Addrs()); err != nil {
			b.Fatal(err)
		}
		defer ccs[i].Close()
	}
	pipeline := func(c *Client, reqs []potserve.Request) {
		resps, err := c.Pipeline(reqs)
		if err != nil {
			b.Fatal(err)
		}
		for i, r := range resps {
			if r.Status != potserve.StatusOK && r.Status != potserve.StatusNotFound {
				b.Fatalf("op %d on key %d: status %d: %s", reqs[i].Op, reqs[i].Key, r.Status, r.Msg)
			}
		}
	}
	reqs := make([]potserve.Request, 0, depth)
	for k := uint64(0); k < keys; k += depth {
		reqs = reqs[:0]
		for j := k; j < k+depth; j++ {
			reqs = append(reqs, potserve.Request{Op: potserve.OpPut, Key: j, Val: j})
		}
		pipeline(ccs[0], reqs)
	}

	type counters struct{ commits, persists, frames, entries uint64 }
	snap := func() (c counters) {
		for _, m := range cl.Members {
			hs := m.Sh.Heap().StatsSnapshot()
			c.commits += hs.TxCommits
			c.persists += hs.Persists
			f, e := m.Node.RepStats()
			c.frames += f
			c.entries += e
		}
		return c
	}
	before := snap()
	b.ResetTimer()
	start := time.Now()
	for it := 0; it < b.N; it++ {
		var wg sync.WaitGroup
		for ci, c := range ccs {
			wg.Add(1)
			go func(ci int, c *Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(it*clients + ci)))
				reqs := make([]potserve.Request, depth)
				for done := 0; done < opsPerRun/clients; done += depth {
					for j := range reqs {
						reqs[j] = potserve.Request{Op: potserve.OpPut, Key: uint64(rng.Intn(keys)), Val: rng.Uint64()}
						if rng.Intn(10) == 0 {
							reqs[j] = potserve.Request{Op: potserve.OpDel, Key: reqs[j].Key}
						}
					}
					pipeline(c, reqs)
				}
			}(ci, c)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	after := snap()
	writes := float64(b.N * opsPerRun)
	b.ReportMetric(writes/elapsed.Seconds(), "ops/s")
	b.ReportMetric(float64(after.entries-before.entries)/float64(max(after.frames-before.frames, 1)), "rep_entries/frame")
	b.ReportMetric(float64(after.commits-before.commits)/writes, "commits/write")
	b.ReportMetric(float64(after.persists-before.persists)/writes, "persists/write")
}
