package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"potgo/internal/obs"
	"potgo/internal/potserve"
)

// The traced run records spans from the benchmark's own code only: the
// client times each batch, and tracedBackend — a potserve.Backend around
// the store or a cluster node — times each Exec. No wire format changes:
// a key has exactly one owning connection, so the client and the server
// both name a request by (key, n-th request on that key), and that pair
// links a server span to the batch that carried it. One key in sampleEvery
// is sampled for spans; aggregates cover every request.
const sampleEvery = 64

// reqID names a request on both sides of the wire.
type reqID struct {
	key uint64
	n   uint32
}

// span is one recorded interval. parent 0 is a root. Parents are resolved
// when the trace is written: a follower applies a REP frame inside the
// coordinator Exec that sent it, before that Exec's span exists.
type span struct {
	name       string
	id, parent uint64
	tid        int
	start, end time.Time
	req        reqID // server Exec: the request; parent is its client batch
	repOf      reqID // rep_apply: first sampled entry; parent is its write's Exec
	entries    int   // rep_apply: entries in the frame
}

// tracer is the traced run's in-memory recorder. Its aggregates are plain
// sums and sample slices under one mutex: recording is on only in the
// traced phase, and its cost shows as bench.trace_overhead_frac.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu      sync.Mutex
	nextID  uint64
	spans   []span
	clientN [conns]map[uint64]uint32 // per-connection request count per sampled key
	batchOf map[reqID]uint64         // request → client batch span
	serverN map[uint64]uint32        // server-side request count per sampled key
	execOf  map[reqID]uint64         // request → coordinator/server exec span
	repN    map[[2]uint64]uint32     // (member, key) → replicated entries seen

	rootSum   time.Duration    // Σ client batch round trips
	execSum   time.Duration    // Σ server Exec of client requests
	exec      map[byte]samples // server Exec per op type
	writeExec samples          // cluster: coordinator Exec of client writes
	repFrames int
	repEnts   int
	repTime   time.Duration
	redirects int
	simWall   time.Duration // sim: wall time of the traced pass
}

func newTracer() *tracer {
	t := &tracer{
		t0: time.Now(), batchOf: map[reqID]uint64{}, serverN: map[uint64]uint32{},
		execOf: map[reqID]uint64{}, repN: map[[2]uint64]uint32{}, exec: map[byte]samples{},
	}
	for c := range t.clientN {
		t.clientN[c] = map[uint64]uint32{}
	}
	return t
}

func sampled(key uint64) bool { return mix64(key^0x5a5a5a5a)%sampleEvery == 0 }

// reqKey is the key a request is named by (a scan by its start key, which
// its sender owns).
func reqKey(r *potserve.Request) uint64 {
	if r.Op == potserve.OpScan {
		return r.From
	}
	return r.Key
}

func (t *tracer) id() uint64 { t.nextID++; return t.nextID }

// clientBatch records one closed-loop batch of connection c.
func (t *tracer) clientBatch(c int, reqs []potserve.Request, t0, t1 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rootSum += t1.Sub(t0)
	var bid uint64
	for i := range reqs {
		k := reqKey(&reqs[i])
		if !sampled(k) {
			continue
		}
		if bid == 0 {
			bid = t.id()
			t.spans = append(t.spans, span{name: "client.batch", id: bid, tid: c, start: t0, end: t1})
		}
		t.clientN[c][k]++
		t.batchOf[reqID{k, t.clientN[c][k]}] = bid
	}
}

// serverExec records one Exec on member (-1: the single-node server).
func (t *tracer) serverExec(member int, req *potserve.Request, resp *potserve.Response, t0, t1 time.Time) {
	d := t1.Sub(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if resp.Status == potserve.StatusNotOwner {
		t.redirects++
	}
	switch req.Op {
	case potserve.OpRep:
		t.repFrames++
		t.repEnts += len(req.Entries)
		t.repTime += d
		// Every client op of cluster-write is a write and every write is one
		// log entry, so a key's n-th entry at a follower is the n-th request
		// on that key.
		var first reqID
		for _, e := range req.Entries {
			if !sampled(e.Key) {
				continue
			}
			k := [2]uint64{uint64(member), e.Key}
			t.repN[k]++
			if first == (reqID{}) {
				first = reqID{e.Key, t.repN[k]}
			}
		}
		if first != (reqID{}) {
			t.spans = append(t.spans, span{name: "cluster.rep_apply", id: t.id(), tid: 20 + member,
				start: t0, end: t1, repOf: first, entries: len(req.Entries)})
		}
	case potserve.OpGet, potserve.OpPut, potserve.OpDel, potserve.OpScan:
		s := t.exec[req.Op]
		s.add(d)
		t.exec[req.Op] = s
		t.execSum += d
		name := "objstore." + opName(req.Op)
		if member >= 0 {
			name = "cluster.exec." + opName(req.Op)
			if req.Op == potserve.OpPut || req.Op == potserve.OpDel {
				t.writeExec.add(d)
			}
		}
		k := reqKey(req)
		if !sampled(k) || resp.Status == potserve.StatusNotOwner {
			return
		}
		t.serverN[k]++
		r := reqID{k, t.serverN[k]}
		id := t.id()
		t.execOf[r] = id
		t.spans = append(t.spans, span{name: name, id: id, tid: 10 + owner(k), start: t0, end: t1, req: r})
	}
}

func opName(op byte) string {
	switch op {
	case potserve.OpGet:
		return "get"
	case potserve.OpPut:
		return "put"
	case potserve.OpDel:
		return "del"
	case potserve.OpScan:
		return "scan"
	}
	return fmt.Sprintf("op%d", op)
}

// tracedBackend times every Exec of its inner backend while the tracer is
// on, and forwards untouched while it is off.
type tracedBackend struct {
	inner  potserve.Backend
	tr     *tracer
	member int
}

func (b *tracedBackend) Exec(req *potserve.Request, resp *potserve.Response) {
	if !b.tr.on.Load() {
		b.inner.Exec(req, resp)
		return
	}
	t0 := time.Now()
	b.inner.Exec(req, resp)
	b.tr.serverExec(b.member, req, resp, t0, time.Now())
}

// simSpan records one simulator call as a root span.
func (t *tracer) simSpan(name string, t0, t1 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rootSum += t1.Sub(t0)
	t.spans = append(t.spans, span{name: name, id: t.id(), start: t0, end: t1})
}

// write resolves server spans' parents and writes every span to path as a
// Perfetto (Chrome trace-event) file.
func (t *tracer) write(path string) error {
	tw, err := obs.CreateTrace(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tw.NameProcess(obs.HarnessPID, "perfbench")
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.repOf != (reqID{}):
			s.parent = t.execOf[s.repOf]
		case s.req != (reqID{}):
			s.parent = t.batchOf[s.req]
		}
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.req != (reqID{}) {
			args["key"], args["n"] = s.req.key, s.req.n
		}
		if s.entries > 0 {
			args["entries"] = s.entries
		}
		ts := float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3
		tw.Complete(obs.HarnessPID, s.tid, s.name, ts, float64(s.end.Sub(s.start).Nanoseconds())/1e3, args)
	}
	return tw.Close()
}
