package crashtest

import (
	"sort"
	"strings"
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/pds"
)

// recovered is a store's post-crash state as the verifiers see it: the
// op counter, the contents reads return, and the pairs a scan returns.
type recovered struct {
	counter  uint64
	contents map[uint64]uint64
	scan     []pds.KV // nil: scan the contents in key order
}

func (r recovered) get(k uint64) (uint64, bool, error) {
	v, ok := r.contents[k]
	return v, ok, nil
}

func (r recovered) scanAll() ([]pds.KV, error) {
	if r.scan != nil {
		return r.scan, nil
	}
	out := make([]pds.KV, 0, len(r.contents))
	for k, v := range r.contents {
		out = append(out, pds.KV{Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// verifyRecovered runs the campaigns' two shared verifiers in their
// order: the journaled-prefix check, then the model check of the
// recovered contents against the replayed prefix.
func verifyRecovered(journal []objstore.BatchOp, acked uint64, r recovered) error {
	prefix, err := journaledPrefix(journal, r.counter, acked)
	if err != nil {
		return err
	}
	return checkModel(objstore.ReplayKVJournal(prefix, len(prefix)), 8, r.get, r.scanAll)
}

// TestVerifiersRejectInconsistentRecovery drives every failure branch of
// the shared verifiers; no campaign reaches them on a correct store.
func TestVerifiersRejectInconsistentRecovery(t *testing.T) {
	journal := []objstore.BatchOp{
		{Key: 1, Val: 10},
		{Key: 2, Val: 20},
		{Key: 1, Del: true},
		{Key: 3, Val: 30},
	}
	// journal[:3] replays to {2: 20}; journal[:4] to {2: 20, 3: 30}.
	cases := []struct {
		name  string
		acked uint64
		r     recovered
		want  string // "" = accepted
	}{
		{"durable prefix", 2, recovered{counter: 3, contents: map[uint64]uint64{2: 20}}, ""},
		{"whole journal", 4, recovered{counter: 4, contents: map[uint64]uint64{2: 20, 3: 30}}, ""},
		{"counter below acked", 4, recovered{counter: 3, contents: map[uint64]uint64{2: 20}}, "outside [acked=4, journaled=4]"},
		{"counter beyond journal", 0, recovered{counter: 5, contents: map[uint64]uint64{2: 20, 3: 30}}, "outside [acked=0, journaled=4]"},
		{"prefix replays to other contents", 0, recovered{counter: 3, contents: map[uint64]uint64{2: 21}}, "key 2: read (21,true), model says (20,true)"},
		{"missing key", 0, recovered{counter: 4, contents: map[uint64]uint64{2: 20}}, "key 3: read (0,false), model says (30,true)"},
		{"extra key", 0, recovered{counter: 3, contents: map[uint64]uint64{2: 20, 5: 50}}, "key 5: read (50,true), model says (0,false)"},
		{"extra scan pair", 0, recovered{counter: 3, contents: map[uint64]uint64{2: 20},
			scan: []pds.KV{{Key: 2, Val: 20}, {Key: 9, Val: 90}}}, "scan returned 2 pairs, model holds 1"},
		{"scan out of order", 0, recovered{counter: 4, contents: map[uint64]uint64{2: 20, 3: 30},
			scan: []pds.KV{{Key: 3, Val: 30}, {Key: 2, Val: 20}}}, "scan[0] = (3,30), want (2,20)"},
	}
	for _, tc := range cases {
		err := verifyRecovered(journal, tc.acked, tc.r)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: rejected for the wrong reason: %v (want %q)", tc.name, err, tc.want)
		}
	}
}
