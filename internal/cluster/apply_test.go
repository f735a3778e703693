package cluster

import (
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

// newFollower builds a standalone member (id 1 of a 3-node topology) over
// a fresh journaled KV, driven directly through Exec.
func newFollower(t *testing.T, shards int) (*Node, *pmem.Sharded) {
	t.Helper()
	sh, err := pmem.NewSharded(pmem.NewStore(), shards, 3)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := objstore.CreateKV(sh, "follower")
	if err != nil {
		t.Fatal(err)
	}
	kv.EnableJournal()
	return NewNode(1, kv, NewTopology(1, testMembers(3))), sh
}

// rep sends one REP frame from origin 0 and returns the response.
func rep(n *Node, entries []potserve.RepEntry) potserve.Response {
	var resp potserve.Response
	n.Exec(&potserve.Request{Op: potserve.OpRep, Origin: 0, Epoch: 1, Entries: entries}, &resp)
	return resp
}

func entryRange(from, to uint64) []potserve.RepEntry {
	var out []potserve.RepEntry
	for s := from; s <= to; s++ {
		out = append(out, potserve.RepEntry{Seq: s, Epoch: 1, Key: 100 + s, Val: s})
	}
	return out
}

// TestFollowerAppliesRunInChunks: one REP frame carrying a duplicate
// prefix, then an in-order run longer than the chunk bound, then a gap.
// The follower applies exactly the run, answers the run's last seq as its
// watermark, and spends ceil(n/C) commits on a run of n entries.
func TestFollowerAppliesRunInChunks(t *testing.T) {
	n, sh := newFollower(t, 2)
	const chunk = 4
	n.applyChunk = chunk
	if resp := rep(n, entryRange(1, 3)); resp.Status != potserve.StatusOK || resp.Seq != 3 {
		t.Fatalf("first frame: status %d watermark %d, want OK 3", resp.Status, resp.Seq)
	}

	const runLen = 11                                        // seqs 4..14: ceil(11/4) = 3 chunks
	frame := entryRange(2, 3)                                // duplicates
	frame = append(frame, entryRange(4, 3+runLen)...)        // the run
	frame = append(frame, entryRange(5+runLen, 6+runLen)...) // past a gap at 15
	c0 := sh.Heap().StatsSnapshot().TxCommits
	resp := rep(n, frame)
	commits := sh.Heap().StatsSnapshot().TxCommits - c0
	if resp.Status != potserve.StatusOK || resp.Seq != 3+runLen {
		t.Fatalf("status %d watermark %d (%s), want OK %d", resp.Status, resp.Seq, resp.Msg, 3+runLen)
	}
	if want := uint64((runLen + chunk - 1) / chunk); commits != want {
		t.Fatalf("run of %d entries at chunk %d cost %d commits, want %d", runLen, chunk, commits, want)
	}
	log := n.AppliedLog(0)
	if len(log) != 3+runLen {
		t.Fatalf("applied log holds %d entries, want %d", len(log), 3+runLen)
	}
	for i, a := range log {
		if a.Seq != uint64(i+1) {
			t.Fatalf("applied log[%d] = seq %d", i, a.Seq)
		}
	}
	for s := uint64(1); s <= 6+runLen; s++ {
		v, ok, err := n.KV.Get(100 + s)
		if err != nil {
			t.Fatal(err)
		}
		if want := s <= 3+runLen; ok != want || (ok && v != s) {
			t.Fatalf("seq %d: replica has (%d,%v), want present=%v", s, v, ok, want)
		}
	}
	// The journal and op counters account for every applied entry.
	for i := 0; i < 2; i++ {
		c, err := n.KV.Counter(i)
		if err != nil || c != uint64(len(n.KV.Journal(i))) {
			t.Fatalf("shard %d: counter %d (err %v), journal %d", i, c, err, len(n.KV.Journal(i)))
		}
	}
}

// TestFollowerWorstCaseChunk: a chunk of the default bound made entirely of
// inserts that each split a full leaf — across every shard, so the whole
// chunk's undo records land in the lowest shard's log — commits as one
// transaction without overflowing the undo log.
func TestFollowerWorstCaseChunk(t *testing.T) {
	const shards = 4
	n, sh := newFollower(t, shards)
	chunk := n.applyChunk
	leaves := (chunk + shards - 1) / shards // full leaves needed per shard
	key := func(shard, i int) uint64 { return uint64(i*shards + shard) }
	// Ascending inserts spaced 100 apart leave three-key leaves (keys
	// 3j..3j+2 of the sequence); three more keys between the first two of
	// each leaf fill it to six.
	for s := 0; s < shards; s++ {
		for j := 0; j < 3*leaves+3; j++ {
			if _, err := n.KV.Put(key(s, 100*j), 1); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < leaves; j++ {
			for d := 10; d <= 30; d += 10 {
				if _, err := n.KV.Put(key(s, 300*j+d), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var frame []potserve.RepEntry
	for i := 0; i < chunk; i++ {
		s, j := i%shards, i/shards
		frame = append(frame, potserve.RepEntry{Seq: uint64(i + 1), Epoch: 1, Key: key(s, 300*j+40), Val: 2})
	}
	before := sh.Heap().StatsSnapshot()
	resp := rep(n, frame)
	after := sh.Heap().StatsSnapshot()
	if resp.Status != potserve.StatusOK || resp.Seq != uint64(chunk) {
		t.Fatalf("worst-case chunk of %d: status %d watermark %d: %s", chunk, resp.Status, resp.Seq, resp.Msg)
	}
	if c := after.TxCommits - before.TxCommits; c != 1 {
		t.Fatalf("chunk of %d cost %d commits, want 1", chunk, c)
	}
	if a := after.Allocs - before.Allocs; a < uint64(chunk) {
		t.Fatalf("%d allocations for %d inserts: not every insert split a leaf", a, chunk)
	}
	t.Logf("chunk of %d split-forcing inserts: %d undo bytes of a %d-byte log",
		chunk, after.UndoBytes-before.UndoBytes, 256*1024)
	if _, err := n.KV.Check(); err != nil {
		t.Fatal(err)
	}
}
