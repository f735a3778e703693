package crashtest

import (
	"maps"
	"strings"
	"testing"

	"potgo/internal/nvmsim"
	"potgo/internal/objstore"
	"potgo/internal/pmem"
)

const batchShards = 4

// batchWorld builds a journaled 4-shard KV holding keys 1..32 (value
// 10*key), every write acknowledged.
func batchWorld(t *testing.T) (*pmem.Sharded, *objstore.KV) {
	t.Helper()
	sh, err := pmem.NewSharded(pmem.NewStore(), batchShards, 7)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := objstore.CreateKV(sh, "batch")
	if err != nil {
		t.Fatal(err)
	}
	kv.EnableJournal()
	for k := uint64(1); k <= 32; k++ {
		if _, err := kv.Put(k, 10*k); err != nil {
			t.Fatal(err)
		}
	}
	return sh, kv
}

// crashBatchOps is one batch over every shard: overwrites, inserts (some
// forcing leaf splits) and deletes, with a repeated key.
func crashBatchOps() []objstore.BatchOp {
	var ops []objstore.BatchOp
	for k := uint64(1); k <= 12; k++ {
		ops = append(ops, objstore.BatchOp{Key: k, Val: 1000 + k})
	}
	for k := uint64(100); k < 116; k++ {
		ops = append(ops, objstore.BatchOp{Key: k, Val: k})
	}
	for k := uint64(20); k < 28; k++ {
		ops = append(ops, objstore.BatchOp{Key: k, Del: true})
	}
	return append(ops, objstore.BatchOp{Key: 3, Val: 3333}, objstore.BatchOp{Key: 101, Del: true})
}

// TestJournaledBatchCrashAtomic arms a crash at sampled events inside one
// multi-shard Batch on a journaled store. After the power cycle every
// shard's recovered op counter must be all-old or all-new — and the same
// for every shard, the batch being one transaction — and journaledPrefix
// must hold with the pre-batch counters as the acked floor, naming a
// journal prefix that replays exactly to the recovered contents.
func TestJournaledBatchCrashAtomic(t *testing.T) {
	ops := crashBatchOps()
	perShard := make([]uint64, batchShards)
	for _, op := range ops {
		perShard[op.Key%batchShards]++
	}

	// Unarmed run: the batch's event span, and its committed outcome.
	sh, kv := batchWorld(t)
	start := sh.Heap().NV.Events()
	if err := kv.Batch(ops, nil); err != nil {
		t.Fatal(err)
	}
	span := sh.Heap().NV.Events() - start
	if span == 0 {
		t.Fatal("batch produced no persistence events")
	}

	// The batch's events are start .. start+span-1. Crash before points
	// spread over them, before each of the last ones (where the commit
	// point sits), and once after the whole batch (offset span: the power
	// cut comes after Batch returns).
	const spread, tail = 24, 8
	var offsets []uint64
	for p := uint64(0); p < spread; p++ {
		offsets = append(offsets, p*span/spread)
	}
	for e := span - tail; e <= span; e++ {
		offsets = append(offsets, e)
	}
	kinds := []nvmsim.Kind{nvmsim.DropAll, nvmsim.KeepRandom, nvmsim.Torn}
	var sawOld, sawNew bool
	for p, off := range offsets {
		sh, kv := batchWorld(t)
		acked := make([]uint64, batchShards)
		for i := range acked {
			acked[i] = uint64(len(kv.Journal(i)))
		}
		nv := sh.Heap().NV
		arm := nv.Events() + off
		nv.Arm(arm)
		crashed, err := catchCrash(func() error { return kv.Batch(ops, nil) })
		nv.Disarm()
		if err != nil {
			t.Fatalf("point %d: batch: %v", p, err)
		}
		if crashed != (off < span) {
			t.Fatalf("point %d: arm at offset %d of a %d-event batch: crashed=%v", p, off, span, crashed)
		}
		pol := nvmsim.Policy{Kind: kinds[p%len(kinds)], Seed: mix64(uint64(p))}
		if _, err := sh.Crash(pol); err != nil {
			t.Fatal(err)
		}
		kv2, err := objstore.OpenKV(sh, "batch")
		if err != nil {
			t.Fatalf("point %d: reattach: %v", p, err)
		}
		total, err := kv2.Check()
		if err != nil {
			t.Fatalf("point %d: invariants: %v", p, err)
		}
		committed := 0
		for i := 0; i < batchShards; i++ {
			c, err := kv2.Counter(i)
			if err != nil {
				t.Fatal(err)
			}
			switch c {
			case acked[i]:
			case acked[i] + perShard[i]:
				committed++
			default:
				t.Fatalf("point %d (%s): shard %d counter %d is neither old %d nor new %d",
					p, pol.Kind, i, c, acked[i], acked[i]+perShard[i])
			}
		}
		if committed != 0 && committed != batchShards {
			t.Fatalf("point %d (%s): %d of %d shards recovered the batch", p, pol.Kind, committed, batchShards)
		}
		sawOld = sawOld || committed == 0
		sawNew = sawNew || committed == batchShards
		model, err := kvPrefixModel(kv, kv2, batchShards, acked)
		if err != nil {
			t.Fatalf("point %d (%s): %v", p, pol.Kind, err)
		}
		if total != len(model) {
			t.Fatalf("point %d: %d keys recovered, prefixes replay to %d", p, total, len(model))
		}
		if err := checkModel(model, 128, kv2.Get, nil); err != nil {
			t.Fatalf("point %d (%s): %v", p, pol.Kind, err)
		}
	}
	if !sawOld {
		t.Error("no point recovered the pre-batch state: the sample never crashed before the commit point")
	}
	if !sawNew {
		t.Error("no point recovered the batch: the sample never crashed after the commit point")
	}
}

// TestJournaledBatchAbortLeavesNoTail: a batch that aborts (here: more
// inserts than the undo log can hold) must leave every journal and counter
// exactly as before — no dead tail for later ops to land behind — and the
// store unchanged.
func TestJournaledBatchAbortLeavesNoTail(t *testing.T) {
	_, kv := batchWorld(t)
	before := make([][]objstore.BatchOp, batchShards)
	for i := range before {
		before[i] = append([]objstore.BatchOp(nil), kv.Journal(i)...)
	}
	var ops []objstore.BatchOp
	for k := uint64(1000); k < 1000+uint64(40*objstore.MaxBatchOps); k++ {
		ops = append(ops, objstore.BatchOp{Key: k, Val: k})
	}
	err := kv.Batch(ops, nil)
	if err == nil || !strings.Contains(err.Error(), "undo log") {
		t.Fatalf("oversized batch: err = %v, want an undo-log-full abort", err)
	}
	for i := 0; i < batchShards; i++ {
		if j := kv.Journal(i); !slicesEqual(j, before[i]) {
			t.Fatalf("shard %d journal %d entries after abort, want %d", i, len(j), len(before[i]))
		}
		if c, err := kv.Counter(i); err != nil || c != uint64(len(before[i])) {
			t.Fatalf("shard %d counter %d (err %v), want %d", i, c, err, len(before[i]))
		}
	}
	// The next committed op lines up with its journal entry.
	if _, err := kv.Put(1000, 1); err != nil {
		t.Fatal(err)
	}
	model, err := kvPrefixModel(kv, kv, batchShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{1000: 1}
	for k := uint64(1); k <= 32; k++ {
		want[k] = 10 * k
	}
	if !maps.Equal(model, want) {
		t.Fatalf("journal replays to %d keys, want %d", len(model), len(want))
	}
	if err := checkModel(model, 1100, kv.Get, nil); err != nil {
		t.Fatal(err)
	}
}

func slicesEqual(a, b []objstore.BatchOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
