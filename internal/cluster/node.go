package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/potserve"
)

// Replication and coordination round trips are bounded: a hung peer (a
// partition that drops packets without resetting the connection) must turn
// into a failed ack or a failed catch-up, never a coordinator — or every
// client write on it — blocked forever.
const (
	peerDialTimeout = 5 * time.Second
	peerCallTimeout = 15 * time.Second
)

// dialPeer dials a member for replication traffic with connect and
// per-round-trip deadlines armed.
func dialPeer(addr string) (*potserve.Client, error) {
	c, err := potserve.DialTimeout(addr, peerDialTimeout)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(peerCallTimeout)
	return c, nil
}

// Applied is one log entry as applied on a node, stamped with the context
// the verifier needs: the epoch the sender claimed when it pushed the entry
// and the node's own epoch at apply time. An entry applied with
// SenderEpoch < NodeEpoch is the split-brain signature — a deposed primary
// got a write accepted after the membership moved on — and the honest
// follower path rejects exactly that.
type Applied struct {
	potserve.RepEntry
	Origin      uint32
	SenderEpoch uint64
	NodeEpoch   uint64
}

// Node is one cluster member: a potserve Backend that owns a ring segment
// (it coordinates writes for its keys), follows every peer's op log, and
// replicates its own log to the peers, acknowledging a write only once a
// majority of the original membership holds it durably.
//
// A node whose heap crashes (an armed nvmsim event fires during a local
// apply) recovers the panic, marks itself dead and shuts its server down —
// the in-process analogue of the process dying: in-flight clients see
// connection errors, peers stop getting acks.
type Node struct {
	ID uint32
	KV *objstore.KV

	// onDeath, when non-nil, runs once on the first recovered crash signal
	// (the harness uses it to close the node's listener asynchronously).
	onDeath func()

	mu   sync.Mutex
	topo Topology
	// wmu serializes local apply + log append on the coordinator path, so
	// one node's per-key apply order equals its log order. It is NEVER held
	// across a network call: the replication push runs on per-peer backlog
	// streams instead, which is what keeps two nodes writing to each other
	// deadlock-free.
	wmu sync.Mutex
	// wscratch is the coordinator path's apply scratch, guarded by wmu.
	wscratch applyScratch
	// origins[origin] serializes follower applies per origin and holds
	// their scratch. Different origins own disjoint key segments, so
	// per-origin locking preserves per-key order without coupling the
	// origins (or the local write path).
	origins sync.Map // uint32 -> *originApply
	// applyChunk bounds how many log entries one local transaction
	// applies, on the coordinator path and the follower path alike.
	applyChunk int
	// seq numbers this node's own log from 1.
	seq uint64
	// tracker counts durability acks for this node's own log.
	tracker *Tracker
	// watermark[origin] is the highest seq applied in order per origin.
	watermark map[uint32]uint64
	// applied[origin] is the in-order applied log per origin, including
	// this node's own, minus any compacted prefix: applied[origin][i]
	// holds Seq trimmed[origin]+i+1. Volatile by design — the persistent
	// truth is the KV journal + op counters; the applied log is the
	// replication state the verifier audits (the crash harness never
	// compacts, so it audits full logs).
	applied map[uint32][]Applied
	// trimmed[origin] is the compaction floor: entries with
	// Seq <= trimmed[origin] have been discarded from applied[origin].
	trimmed map[uint32]uint64

	// peers holds one replication stream per peer: a lazily-dialed client,
	// the peer's last confirmed watermark for OUR log, and a lock
	// serializing pushes to that peer. Every push sends the whole backlog
	// past the confirmed watermark, so concurrent writers pushing out of
	// order still deliver the log gap-free.
	peersMu sync.Mutex
	peers   map[uint32]*peerStream

	// repFrames and repEntries count the REP frames this node received as
	// a follower and the entries they carried: entries per frame is how
	// much replication traffic one round trip amortizes.
	repFrames, repEntries atomic.Uint64

	dead      bool
	deathOnce sync.Once

	// splitBrainMutation disables the stale-epoch rejection on the
	// follower path — the seeded bug the cluster verifier must catch.
	splitBrainMutation bool
}

// NewNode builds a cluster node over a journaled KV at the given topology.
func NewNode(id uint32, kv *objstore.KV, topo Topology) *Node {
	return &Node{
		ID:         id,
		KV:         kv,
		topo:       topo,
		tracker:    NewTracker(topo.Quorum()),
		watermark:  make(map[uint32]uint64),
		applied:    make(map[uint32][]Applied),
		trimmed:    make(map[uint32]uint64),
		applyChunk: objstore.MaxBatchOps,
	}
}

// OnDeath registers a hook run once when the node's heap crashes.
func (n *Node) OnDeath(fn func()) { n.onDeath = fn }

// SetTopology installs a new topology (the coordinator's failover push).
// The quorum requirement is over the original membership and never changes.
func (n *Node) SetTopology(t Topology) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t.Epoch() > n.topo.Epoch() {
		n.topo = t
	}
}

// Topology returns the node's current topology view.
func (n *Node) Topology() Topology {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.topo
}

// Epoch returns the node's current topology epoch.
func (n *Node) Epoch() uint64 { return n.Topology().Epoch() }

// Dead reports whether the node's heap crashed.
func (n *Node) Dead() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dead
}

// MutateSplitBrain disables the follower's stale-epoch rejection: a deposed
// primary's appends are accepted as if its epoch were current. Test-only.
func (n *Node) MutateSplitBrain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.splitBrainMutation = true
}

// Watermark returns the node's applied watermark for an origin.
func (n *Node) Watermark(origin uint32) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.watermark[origin]
}

// AppliedLog returns a copy of the node's applied log for an origin.
func (n *Node) AppliedLog(origin uint32) []Applied {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Applied, len(n.applied[origin]))
	copy(out, n.applied[origin])
	return out
}

// Trimmed returns the node's compaction floor for an origin: entries with
// Seq <= Trimmed(origin) have been discarded from the applied log.
func (n *Node) Trimmed(origin uint32) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trimmed[origin]
}

// CompactBelow discards origin's applied-log entries with Seq <= below
// (clamped to the applied watermark). Safe only when everything that may
// ever ask for this log again — REP backlog pushes, SUB catch-up — already
// holds it through below; the coordinator computes that floor as the
// minimum watermark across alive members. This bounds the volatile applied
// log, which otherwise grows without limit in a long-running cluster; the
// persistent truth (KV + journal) is unaffected.
func (n *Node) CompactBelow(origin uint32, below uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if w := n.watermark[origin]; below > w {
		below = w
	}
	base := n.trimmed[origin]
	if below <= base {
		return
	}
	cut := below - base
	log := n.applied[origin]
	if cut > uint64(len(log)) {
		cut = uint64(len(log))
	}
	// Copy the suffix so the old backing array (and the entry payloads it
	// pins) is released.
	n.applied[origin] = append([]Applied(nil), log[cut:]...)
	n.trimmed[origin] = base + cut
}

// SelfCompact bounds the node's applied logs without a coordinator (the
// multi-process potserve cluster mode, which has no failover driver): the
// node's own log is trimmed below the lowest watermark its alive peers
// have confirmed on their replication streams — a down peer (confirmed 0)
// pins the whole log, exactly the backlog it will need — and every other
// origin's log keeps a MaxRepEntries retention tail past this node's
// applied watermark, enough to serve one catch-up frame. The in-process
// coordinator never calls this; it compacts cluster-wide via
// Cluster.Compact, and the crash harness not at all.
func (n *Node) SelfCompact() {
	t := n.Topology()
	floor := n.Watermark(n.ID)
	for _, tn := range t.Wire.Nodes {
		if tn.ID == n.ID || !tn.Alive {
			continue
		}
		ps := n.peer(tn.ID)
		ps.mu.Lock()
		known := ps.known
		ps.mu.Unlock()
		if known < floor {
			floor = known
		}
	}
	n.CompactBelow(n.ID, floor)
	for _, tn := range t.Wire.Nodes {
		if tn.ID == n.ID {
			continue
		}
		if w := n.Watermark(tn.ID); w > uint64(potserve.MaxRepEntries) {
			n.CompactBelow(tn.ID, w-uint64(potserve.MaxRepEntries))
		}
	}
}

// Seq returns the node's own log length (last assigned sequence).
func (n *Node) Seq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seq
}

// RepStats returns how many REP frames this node received as a follower
// and how many log entries they carried (duplicates included).
func (n *Node) RepStats() (frames, entries uint64) {
	return n.repFrames.Load(), n.repEntries.Load()
}

// Tracker returns the node's quorum tracker for its own log.
func (n *Node) Tracker() *Tracker { return n.tracker }

// markDead flags the node dead and runs the death hook once.
func (n *Node) markDead() {
	n.mu.Lock()
	n.dead = true
	n.mu.Unlock()
	n.deathOnce.Do(func() {
		if n.onDeath != nil {
			n.onDeath()
		}
	})
}

// peerStream is one replication stream to a peer: pushes serialize on mu,
// conn is redialed after errors, and known tracks the peer's confirmed
// watermark for this node's own log.
type peerStream struct {
	mu    sync.Mutex
	conn  *potserve.Client
	known uint64
	// frame is the REP payload scratch, reused across pushes.
	frame []potserve.RepEntry
}

// peer returns the stream for a peer node, creating it on first use.
func (n *Node) peer(id uint32) *peerStream {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if n.peers == nil {
		n.peers = make(map[uint32]*peerStream)
	}
	ps, ok := n.peers[id]
	if !ok {
		ps = &peerStream{}
		n.peers[id] = ps
	}
	return ps
}

// Close tears down the node's replication streams.
func (n *Node) Close() {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	for id, ps := range n.peers {
		ps.mu.Lock()
		if ps.conn != nil {
			ps.conn.Close()
			ps.conn = nil
		}
		ps.mu.Unlock()
		delete(n.peers, id)
	}
}

// Exec implements potserve.Backend: one request is a batch of one.
func (n *Node) Exec(req *potserve.Request, resp *potserve.Response) {
	reqs := [1]potserve.Request{*req}
	resps := [1]potserve.Response{*resp}
	n.ExecBatch(reqs[:], resps[:])
	*resp = resps[0]
}

// ExecBatch implements potserve.BatchBackend. Each maximal run of
// consecutive PUT/DEL requests runs the replicated commit as one unit
// (execWrites); every other request executes in place between runs, so
// the connection's order is kept. Reads serve locally after an ownership
// check; replication ops run the follower state machine. A crash signal
// from the heap (armed nvmsim event, or any event after poisoning) is
// recovered here and turns into node death, exactly like a process crash
// under a real power cut.
func (n *Node) ExecBatch(reqs []potserve.Request, resps []potserve.Response) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := nvmsim.AsCrashSignal(r); !ok {
			panic(r)
		}
		n.markDead()
		// The responses never reach the client: the death hook closes the
		// server, tearing every connection down mid-flight. Fill refusals
		// anyway so an in-process caller sees coherent responses.
		for i := range resps {
			resps[i] = potserve.Response{Status: potserve.StatusErr, Msg: "cluster: node crashed"}
		}
	}()
	for i := 0; i < len(reqs); {
		j := i + 1
		if isWrite(reqs[i].Op) {
			for j < len(reqs) && isWrite(reqs[j].Op) {
				j++
			}
		}
		switch {
		case n.Dead():
			for k := i; k < j; k++ {
				resps[k] = potserve.Response{Status: potserve.StatusErr, Msg: "cluster: node is dead"}
			}
		case isWrite(reqs[i].Op):
			n.execWrites(reqs[i:j], resps[i:j])
		default:
			n.execOne(&reqs[i], &resps[i])
		}
		i = j
	}
}

func isWrite(op byte) bool { return op == potserve.OpPut || op == potserve.OpDel }

// execOne executes one request that is not a client write.
func (n *Node) execOne(req *potserve.Request, resp *potserve.Response) {
	switch req.Op {
	case potserve.OpGet, potserve.OpScan, potserve.OpPing:
		n.execRead(req, resp)
	case potserve.OpRep:
		n.execRep(req, resp)
	case potserve.OpSub:
		n.execSub(req, resp)
	case potserve.OpAck:
		n.execAck(req, resp)
	case potserve.OpTopo:
		t := n.Topology()
		*resp = potserve.Response{Status: potserve.StatusOK, Topo: t.Wire}
	case potserve.OpTx:
		// Multi-key transactions would need a cross-node commit protocol;
		// the cluster tier serves single-key ops and scans only.
		*resp = potserve.Response{Status: potserve.StatusErr, Msg: "cluster: TX is not supported in cluster mode"}
	default:
		*resp = potserve.Response{Status: potserve.StatusErr, Msg: fmt.Sprintf("cluster: unhandled op %d", req.Op)}
	}
}

// execRead serves GET/SCAN/PING locally. Every node applies every origin's
// log, so the local KV holds the full data set; GET still checks ownership
// — only the owner's copy reflects its latest acknowledged writes, a
// non-owner may lag the tail of the owner's log. SCAN answers from the
// local replica and the routing client merges per-owner results.
func (n *Node) execRead(req *potserve.Request, resp *potserve.Response) {
	if req.Op == potserve.OpGet {
		t := n.Topology()
		owner, ok := t.Owner(req.Key)
		if !ok || owner != n.ID {
			*resp = potserve.Response{Status: potserve.StatusNotOwner}
			return
		}
	}
	(&potserve.KVBackend{KV: n.KV}).Exec(req, resp)
}

// applyScratch is reusable scratch for applying one run of log entries.
type applyScratch struct {
	entries []potserve.RepEntry
	ops     []objstore.BatchOp
	existed []bool
}

// originApply serializes one origin's follower applies and holds their
// scratch.
type originApply struct {
	mu sync.Mutex
	sc applyScratch
}

// applyEntries applies a run of origin's log entries, in seq order and
// contiguous with the origin's watermark, in local transactions of at most
// applyChunk entries each. Each chunk reaches the applied log and the
// watermark only after its transaction commits, so a watermark (and with
// it any ack) never runs ahead of durable state. When existed is non-nil,
// existed[i] reports whether entry i's key was present before it. It
// returns how many entries were applied; on error, the entries from the
// failed chunk on are not.
func (n *Node) applyEntries(origin uint32, entries []potserve.RepEntry, senderEpoch, nodeEpoch uint64, existed []bool, sc *applyScratch) (int, error) {
	for done := 0; done < len(entries); {
		end := min(done+n.applyChunk, len(entries))
		chunk := entries[done:end]
		ops := sc.ops[:0]
		for _, e := range chunk {
			ops = append(ops, objstore.BatchOp{Key: e.Key, Val: e.Val, Del: e.Del})
		}
		sc.ops = ops
		var hit []bool
		if existed != nil {
			hit = existed[done:end]
		}
		if err := n.KV.Batch(ops, hit); err != nil {
			return done, err
		}
		n.mu.Lock()
		for _, e := range chunk {
			n.applied[origin] = append(n.applied[origin], Applied{
				RepEntry: e, Origin: origin, SenderEpoch: senderEpoch, NodeEpoch: nodeEpoch,
			})
		}
		last := chunk[len(chunk)-1].Seq
		n.watermark[origin] = last
		if origin == n.ID {
			n.seq = last
		}
		n.mu.Unlock()
		done = end
	}
	return len(entries), nil
}

// execWrites runs the replicated commit for a run of client writes as one
// unit: ownership check per key; the owned writes applied under wmu in
// local transactions (one for any run of up to applyChunk writes) and
// appended to the own log, in run order; then one backlog push to every
// alive peer; then each write judged against quorum. Each write's response
// waits for its quorum ack, and the ack follows the write's local commit.
func (n *Node) execWrites(reqs []potserve.Request, resps []potserve.Response) {
	var (
		t     Topology
		first uint64 // seq of the run's first logged write
		count int    // logged writes: seqs first .. first+count-1
	)
	func() {
		// Local durable apply first: an entry must be on stable storage
		// here before any peer can be told about it, so a quorum ack
		// implies the entry is durable on every acking node including the
		// coordinator. wmu keeps per-key apply order equal to log order and
		// is released before any network traffic. Deferred unlocks: a
		// crash signal out of the KV must not strand the mutex, or every
		// later handler (and Server.Close, which waits for them) hangs.
		n.wmu.Lock()
		defer n.wmu.Unlock()
		t = n.Topology()
		epoch := t.Epoch()
		sc := &n.wscratch
		ents := sc.entries[:0]
		first = n.Seq() + 1 // only wmu holders advance the own log
		for i := range reqs {
			r := &reqs[i]
			if owner, ok := t.Owner(r.Key); !ok || owner != n.ID {
				resps[i] = potserve.Response{Status: potserve.StatusNotOwner}
				continue
			}
			// An owned write's response starts zeroed and is filled once
			// the run is applied.
			resps[i] = potserve.Response{}
			ents = append(ents, potserve.RepEntry{
				Seq: first + uint64(len(ents)), Epoch: epoch, Key: r.Key, Val: r.Val, Del: r.Op == potserve.OpDel,
			})
		}
		sc.entries = ents
		if cap(sc.existed) < len(ents) {
			sc.existed = make([]bool, len(ents))
		}
		existed := sc.existed[:len(ents)]
		var err error
		count, err = n.applyEntries(n.ID, ents, epoch, epoch, existed, sc)
		k := 0
		for i := range reqs {
			if resps[i].Status == potserve.StatusNotOwner {
				continue
			}
			switch {
			case k >= count:
				resps[i] = potserve.Response{Status: potserve.StatusErr, Msg: err.Error()}
			case reqs[i].Op == potserve.OpDel && !existed[k]:
				resps[i].Status = potserve.StatusNotFound
			case reqs[i].Op == potserve.OpPut:
				resps[i].Created = !existed[k]
			}
			k++
		}
	}()
	if count == 0 {
		return
	}
	last := first + uint64(count) - 1
	n.tracker.Ack(last, n.ID)

	// One push per alive peer carries the whole run (and any backlog
	// queued behind it); each REP response is that peer's durable
	// watermark for our log — the ack.
	for _, tn := range t.Wire.Nodes {
		if tn.ID == n.ID || !tn.Alive {
			continue
		}
		n.pushBacklog(tn, last, t.Epoch())
	}

	// Judge each logged write — exactly the responses still OK or
	// NotFound, the k-th of them holding seq first+k. A write without
	// quorum may be durable on a minority; it is NOT acknowledged and the
	// client must treat it as possibly lost.
	var k uint64
	for i := range resps {
		if st := resps[i].Status; st != potserve.StatusOK && st != potserve.StatusNotFound {
			continue
		}
		if !n.tracker.Durable(first + k) {
			resps[i] = potserve.Response{Status: potserve.StatusErr, Msg: "cluster: write did not reach quorum"}
		}
		k++
	}
}

// pushBacklog sends this node's log entries past the peer's confirmed
// watermark until the peer confirms at least seq, chunking at
// MaxRepEntries per REP frame, and records each returned watermark in the
// quorum tracker. The loop matters: a backlog deeper than one frame (the
// peer was down, or a write burst outran it) must drain fully before the
// write is judged, or a healthy peer's ack would be missed and the client
// would get a spurious quorum failure. Pushes to one peer serialize on
// its stream lock; because every push resumes from the confirmed
// watermark, two writers racing to push still deliver the log in order
// with no gaps — whichever push lands first carries both entries, and the
// response watermark acks both.
func (n *Node) pushBacklog(tn potserve.TopoNode, seq, epoch uint64) {
	ps := n.peer(tn.ID)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for ps.known < seq {
		n.mu.Lock()
		log := n.applied[n.ID]
		base := n.trimmed[n.ID]
		from := ps.known
		if from < base {
			// Entries at or below the compaction floor are confirmed
			// durable on every alive peer (the invariant compaction trims
			// under); ps.known is merely stale. Resume at the floor and
			// let the REP response watermark correct it.
			from = base
		}
		// Own-log entries are in order with Seq == base+index+1.
		idx := from - base
		if idx > uint64(len(log)) {
			idx = uint64(len(log))
		}
		end := uint64(len(log))
		if end-idx > uint64(potserve.MaxRepEntries) {
			end = idx + uint64(potserve.MaxRepEntries)
		}
		entries := ps.frame[:0]
		for _, a := range log[idx:end] {
			entries = append(entries, a.RepEntry)
		}
		ps.frame = entries
		n.mu.Unlock()
		if len(entries) == 0 {
			return
		}
		if ps.conn == nil {
			c, err := dialPeer(tn.Addr)
			if err != nil {
				return
			}
			ps.conn = c
		}
		w, err := ps.conn.Rep(n.ID, epoch, entries)
		if err != nil {
			// Connection error or round-trip timeout: the response stream
			// is out of sync, so drop the connection and count this round
			// as a failed ack. The next write redials and resumes.
			ps.conn.Close()
			ps.conn = nil
			return
		}
		n.tracker.Ack(w, tn.ID)
		if w <= ps.known {
			return // peer refused (stale epoch) or stalled: no progress
		}
		ps.known = w
	}
}

// originState returns the follower apply state of one origin's log.
func (n *Node) originState(origin uint32) *originApply {
	v, _ := n.origins.LoadOrStore(origin, &originApply{})
	return v.(*originApply)
}

// execRep is the follower state machine: apply an origin's entries in
// sequence order exactly once, refuse stale-epoch senders, answer the
// durable watermark. A frame's duplicate prefix is skipped, the in-order
// run after it is applied in chunked transactions, and everything from the
// first gap on is left for the sender to re-send from the watermark.
func (n *Node) execRep(req *potserve.Request, resp *potserve.Response) {
	n.repFrames.Add(1)
	n.repEntries.Add(uint64(len(req.Entries)))
	st := n.originState(req.Origin)
	st.mu.Lock()
	defer st.mu.Unlock()

	n.mu.Lock()
	nodeEpoch := n.topo.Epoch()
	mutated := n.splitBrainMutation
	w := n.watermark[req.Origin]
	n.mu.Unlock()

	// Epoch fence: a sender below our epoch is a deposed primary (or a
	// partitioned one) — accepting its writes is exactly how split brain
	// corrupts a cluster, so the honest path refuses. The seeded mutation
	// skips this check and the verifier must catch the consequence.
	if !mutated && req.Epoch < nodeEpoch {
		*resp = potserve.Response{Status: potserve.StatusErr,
			Msg: fmt.Sprintf("cluster: stale epoch %d < %d", req.Epoch, nodeEpoch)}
		return
	}

	ents := req.Entries
	i := 0
	for i < len(ents) && ents[i].Seq <= w {
		i++ // duplicate delivery; applies are exactly-once
	}
	j := i
	for j < len(ents) && ents[j].Seq == w+uint64(j-i)+1 {
		j++
	}
	if _, err := n.applyEntries(req.Origin, ents[i:j], req.Epoch, nodeEpoch, nil, &st.sc); err != nil {
		*resp = potserve.Response{Status: potserve.StatusErr, Msg: err.Error()}
		return
	}
	*resp = potserve.Response{Status: potserve.StatusOK, Seq: n.Watermark(req.Origin)}
}

// execSub answers an origin's applied log suffix (catch-up stream), at
// most MaxRepEntries per response — the subscriber resumes from the
// watermark its REP push confirmed. A request below the compaction floor
// is an explicit error, never a silent gap: the requester's replica can no
// longer be caught up from this node.
func (n *Node) execSub(req *potserve.Request, resp *potserve.Response) {
	n.mu.Lock()
	log := n.applied[req.Origin]
	base := n.trimmed[req.Origin]
	var out []potserve.RepEntry
	if req.Seq >= base {
		// Applied entries are in order with Seq == base+index+1.
		idx := req.Seq - base
		if idx < uint64(len(log)) {
			end := idx + uint64(potserve.MaxRepEntries)
			if end > uint64(len(log)) {
				end = uint64(len(log))
			}
			out = make([]potserve.RepEntry, 0, end-idx)
			for _, a := range log[idx:end] {
				out = append(out, a.RepEntry)
			}
		}
	}
	n.mu.Unlock()
	if req.Seq < base {
		*resp = potserve.Response{Status: potserve.StatusErr,
			Msg: fmt.Sprintf("cluster: origin %d log compacted through %d, cannot serve from %d", req.Origin, base, req.Seq)}
		return
	}
	*resp = potserve.Response{Status: potserve.StatusOK, Entries: out}
}

// execAck records a peer-reported durable watermark in the quorum tracker
// (the coordinator seeds a promoted primary's tracker this way).
func (n *Node) execAck(req *potserve.Request, resp *potserve.Response) {
	n.tracker.Ack(req.Seq, req.Origin)
	*resp = potserve.Response{Status: potserve.StatusOK}
}
