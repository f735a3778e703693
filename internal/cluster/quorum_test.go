package cluster

import "testing"

// TestTrackerWatermarks: acks are cumulative watermarks, so out-of-order
// and repeated acks from one node never lower or double-count its vote;
// Committed is the quorum-th largest watermark and Durable(s) holds
// exactly for s <= Committed().
func TestTrackerWatermarks(t *testing.T) {
	type ack struct {
		seq  uint64
		node uint32
	}
	cases := []struct {
		name      string
		quorum    int
		acks      []ack
		committed uint64
	}{
		{"no acks", 2, nil, 0},
		{"one node alone", 2, []ack{{5, 0}}, 0},
		{"in order", 2, []ack{{1, 0}, {1, 1}, {2, 0}, {2, 1}}, 2},
		{"out of order from one node", 2, []ack{{7, 1}, {3, 1}, {4, 0}}, 4},
		{"repeated ack counts once", 2, []ack{{6, 0}, {6, 0}, {6, 0}}, 0},
		{"stale ack after a newer one", 2, []ack{{9, 0}, {9, 1}, {2, 1}}, 9},
		{"quorum-th largest of three", 2, []ack{{10, 0}, {4, 1}, {7, 2}}, 7},
		{"quorum of all three", 3, []ack{{10, 0}, {4, 1}, {7, 2}}, 4},
		{"five nodes, quorum three", 3, []ack{{8, 4}, {2, 0}, {5, 3}, {5, 1}, {1, 2}, {3, 0}}, 5},
		{"zero watermark", 2, []ack{{0, 0}, {0, 1}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracker(tc.quorum)
			for _, a := range tc.acks {
				tr.Ack(a.seq, a.node)
			}
			if got := tr.Committed(); got != tc.committed {
				t.Fatalf("Committed() = %d, want %d", got, tc.committed)
			}
			for s := uint64(1); s <= 12; s++ {
				if got, want := tr.Durable(s), s <= tc.committed; got != want {
					t.Fatalf("Durable(%d) = %v, want %v", s, got, want)
				}
			}
		})
	}
}
