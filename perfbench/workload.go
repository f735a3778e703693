package main

import (
	"fmt"
	"math"
	"math/rand"

	"potgo/internal/potserve"
)

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	kind string // "kv", "cluster" or "sim"
	keys int    // preloaded keys (kv, cluster)
	// Operation mix in percent; the remainder after get+scan+put is delete.
	getPct, scanPct, putPct int
	zipf                    bool // zipfian (θ=0.99) keys instead of uniform
	// nominal is the closed-loop rate (ops/s) the fixed op count is sized
	// from: ops = nominal × closed-phase seconds, so every run does the same
	// work whatever the machine's speed.
	nominal float64
	// rate is the traced run's open-loop offered rate (ops/s over all
	// connections), below the knee of unbatched requests on the machine the
	// benchmark was defined on (see README.md); 0 = no open-loop phase.
	rate float64
}

var workloadTable = []workload{
	{name: "kv-update", kind: "kv", keys: 100_000, getPct: 50, putPct: 40,
		nominal: 85_000, rate: 10_000},
	{name: "kv-read", kind: "kv", keys: 100_000, getPct: 90, scanPct: 5, putPct: 5, zipf: true,
		nominal: 130_000, rate: 15_000},
	{name: "cluster-write", kind: "cluster", keys: 20_000, putPct: 90,
		nominal: 10_000},
	{name: "sim-fig9b", kind: "sim"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// procs is every run's GOMAXPROCS. On a 2-vCPU VM a second P made the
	// serving workloads' throughput swing with cross-CPU hand-offs: ten
	// kv-update runs read 50k–79k ops/s on two Ps and 73k–93k on one. The
	// replication target in ROADMAP.md is stated at GOMAXPROCS=1 as well.
	procs = 1
	// conns is the number of client connections (routing clients on the
	// cluster): the 2 CPUs of the machine the benchmark was defined on.
	conns = 2
	// depth is the closed-loop pipeline depth.
	depth = 16
	// scanLen is the length of a kv-read scan.
	scanLen = 16
	// shards is the heap and KV shard count of every server.
	shards = 8
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// owner is the connection that owns key: only it ever sends requests for
// the key, so a per-key model predicts every answer.
func owner(key uint64) int { return int(mix64(key) % conns) }

// ownedKeys splits [0, n) by owner and shuffles each list with the seed,
// so zipfian ranks land on keys scattered over every shard.
func ownedKeys(n int, seed uint64) [conns][]uint64 {
	var out [conns][]uint64
	for k := uint64(0); k < uint64(n); k++ {
		c := owner(k)
		out[c] = append(out[c], k)
	}
	for c := range out {
		r := rand.New(rand.NewSource(int64(seed)*7919 + int64(c)))
		r.Shuffle(len(out[c]), func(i, j int) { out[c][i], out[c][j] = out[c][j], out[c][i] })
	}
	return out
}

// zipfGen draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^θ (the YCSB
// generator of Gray et al.; math/rand's Zipf needs θ > 1).
type zipfGen struct {
	n                      int
	alpha, zeta, eta, half float64
}

func newZipf(n int, theta float64) *zipfGen {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z2, zn := zeta(2), zeta(n)
	return &zipfGen{
		n: n, alpha: 1 / (1 - theta), zeta: zn,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z2/zn),
		half: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipfGen) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zeta
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	i := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// gen produces one connection's request stream.
type gen struct {
	w    workload
	keys []uint64
	r    *rand.Rand
	z    *zipfGen
}

func newGen(w workload, keys []uint64, seed uint64, conn int, phase int) *gen {
	g := &gen{w: w, keys: keys, r: rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(phase)*101 + int64(conn)))}
	if w.zipf {
		g.z = newZipf(len(keys), 0.99)
	}
	return g
}

func (g *gen) next() potserve.Request {
	var key uint64
	if g.z != nil {
		key = g.keys[g.z.next(g.r)]
	} else {
		key = g.keys[g.r.Intn(len(g.keys))]
	}
	p := g.r.Intn(100)
	switch {
	case p < g.w.getPct:
		return potserve.Request{Op: potserve.OpGet, Key: key}
	case p < g.w.getPct+g.w.scanPct:
		return potserve.Request{Op: potserve.OpScan, From: key, Max: scanLen}
	case p < g.w.getPct+g.w.scanPct+g.w.putPct:
		return potserve.Request{Op: potserve.OpPut, Key: key, Val: g.r.Uint64() | 1}
	}
	return potserve.Request{Op: potserve.OpDel, Key: key}
}

// model is the oracle: the value of every key (0 = absent; stored values
// are never 0). Each key is written only by its owning connection, and a
// connection checks its responses in request order, so entries of one
// connection's keys are exact at every response. Different connections
// touch disjoint entries.
type model []uint64

func (m model) count() int {
	n := 0
	for _, v := range m {
		if v != 0 {
			n++
		}
	}
	return n
}

// check validates resp for req against the model, applies the request to
// the model, and reports the mismatch (nil when the answer is right).
// A scan is checked exactly on the caller's own keys (conn); keys owned by
// the other connections may change under it.
func (m model) check(conn int, req *potserve.Request, resp *potserve.Response) error {
	bad := func(format string, a ...any) error {
		return fmt.Errorf("op %d key %d: "+format, append([]any{req.Op, req.Key}, a...)...)
	}
	switch req.Op {
	case potserve.OpGet:
		want := m[req.Key]
		switch {
		case want == 0 && resp.Status != potserve.StatusNotFound:
			return bad("want not-found, got status %d val %d", resp.Status, resp.Val)
		case want != 0 && (resp.Status != potserve.StatusOK || resp.Val != want):
			return bad("want %d, got status %d val %d", want, resp.Status, resp.Val)
		}
	case potserve.OpPut:
		if resp.Status != potserve.StatusOK || resp.Created != (m[req.Key] == 0) {
			return bad("put status %d created %t, model had %d", resp.Status, resp.Created, m[req.Key])
		}
		m[req.Key] = req.Val
	case potserve.OpDel:
		want := potserve.StatusNotFound
		if m[req.Key] != 0 {
			want = potserve.StatusOK
		}
		if resp.Status != want {
			return bad("delete status %d, want %d", resp.Status, want)
		}
		m[req.Key] = 0
	case potserve.OpScan:
		return m.checkScan(conn, req.From, int(req.Max), resp)
	default:
		return bad("unexpected op")
	}
	return nil
}

func (m model) checkScan(conn int, from uint64, max int, resp *potserve.Response) error {
	if resp.Status != potserve.StatusOK || len(resp.KVs) > max {
		return fmt.Errorf("scan from %d: status %d, %d results", from, resp.Status, len(resp.KVs))
	}
	last := uint64(len(m)) // past the end when the scan came back short
	if len(resp.KVs) == max {
		last = resp.KVs[max-1].Key
	}
	got := resp.KVs
	prev := from
	for i, kv := range got {
		if kv.Key < prev || (i > 0 && kv.Key == prev) || kv.Key >= uint64(len(m)) || kv.Val == 0 {
			return fmt.Errorf("scan from %d: bad or unordered entry %d=%d", from, kv.Key, kv.Val)
		}
		prev = kv.Key
		if owner(kv.Key) == conn && m[kv.Key] != kv.Val {
			return fmt.Errorf("scan from %d: key %d = %d, want %d", from, kv.Key, kv.Val, m[kv.Key])
		}
	}
	// Every present own key in [from, last] must have been returned.
	j := 0
	for k := from; k <= last && k < uint64(len(m)); k++ {
		for j < len(got) && got[j].Key < k {
			j++
		}
		if owner(k) == conn && m[k] != 0 && (j == len(got) || got[j].Key != k) {
			return fmt.Errorf("scan from %d: own key %d missing", from, k)
		}
	}
	return nil
}

// checkKV compares a store's full contents with the model: its invariant
// sweep's key count and every key read back. It returns the number of
// checks made and failed.
func checkKV(m model, count func() (int, error), get func(uint64) (uint64, bool, error)) (attempted, failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	attempted++
	if n, err := count(); err != nil {
		fail(fmt.Errorf("invariant check: %w", err))
	} else if n != m.count() {
		fail(fmt.Errorf("store holds %d keys, model %d", n, m.count()))
	}
	for k, want := range m {
		attempted++
		v, ok, err := get(uint64(k))
		if err != nil || ok != (want != 0) || (ok && v != want) {
			fail(fmt.Errorf("read-back key %d: got %d/%t/%v, want %d", k, v, ok, err, want))
		}
	}
	return attempted, failed, first
}
