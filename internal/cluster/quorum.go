package cluster

import "sync"

// Tracker answers "is seq of one origin's log durable on a quorum?". Every
// ack is a cumulative watermark — node holds the log durably through seq —
// so the tracker keeps only the highest watermark per node: seq is durable
// once at least quorum nodes report a watermark >= seq. The primary records
// its own local commit and every follower ack.
type Tracker struct {
	mu     sync.Mutex
	quorum int
	marks  []nodeMark
}

// nodeMark is one node's highest acknowledged watermark.
type nodeMark struct {
	node uint32
	seq  uint64
}

// NewTracker returns a tracker requiring the given number of nodes per
// sequence.
func NewTracker(quorum int) *Tracker {
	return &Tracker{quorum: quorum}
}

// Ack records that node holds origin's log durably through seq (a watermark:
// it covers every sequence at or below seq). A repeated or out-of-order ack
// below the node's known watermark changes nothing.
func (t *Tracker) Ack(seq uint64, node uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.marks {
		if t.marks[i].node == node {
			if seq > t.marks[i].seq {
				t.marks[i].seq = seq
			}
			return
		}
	}
	t.marks = append(t.marks, nodeMark{node: node, seq: seq})
}

// Durable reports whether seq has reached quorum.
func (t *Tracker) Durable(seq uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.atLeast(seq) >= t.quorum
}

// atLeast counts the nodes whose watermark is at or above seq.
func (t *Tracker) atLeast(seq uint64) int {
	n := 0
	for _, m := range t.marks {
		if m.seq >= seq {
			n++
		}
	}
	return n
}

// Committed returns the highest watermark below which every sequence is
// durable on a quorum: the quorum-th largest node watermark.
func (t *Tracker) Committed() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var best uint64
	for _, m := range t.marks {
		if m.seq > best && t.atLeast(m.seq) >= t.quorum {
			best = m.seq
		}
	}
	return best
}
