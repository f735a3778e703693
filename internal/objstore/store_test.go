package objstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"potgo/internal/pmem"
	"potgo/internal/randtest"
)

func newKV(t *testing.T, nshards int) *KV {
	t.Helper()
	sh, err := pmem.NewSharded(pmem.NewStore(), nshards, 1)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	kv, err := CreateKV(sh, "kv")
	if err != nil {
		t.Fatalf("CreateKV: %v", err)
	}
	return kv
}

func TestKVBasic(t *testing.T) {
	kv := newKV(t, 4)

	if _, ok, err := kv.Get(7); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	created, err := kv.Put(7, 70)
	if err != nil || !created {
		t.Fatalf("first Put: created=%v err=%v", created, err)
	}
	created, err = kv.Put(7, 71)
	if err != nil || created {
		t.Fatalf("overwriting Put: created=%v err=%v", created, err)
	}
	if v, ok, err := kv.Get(7); err != nil || !ok || v != 71 {
		t.Fatalf("Get(7) = %d,%v,%v want 71,true,nil", v, ok, err)
	}
	existed, err := kv.Delete(7)
	if err != nil || !existed {
		t.Fatalf("Delete: existed=%v err=%v", existed, err)
	}
	if existed, err = kv.Delete(7); err != nil || existed {
		t.Fatalf("double Delete: existed=%v err=%v", existed, err)
	}

	for k := uint64(1); k <= 20; k++ {
		if _, err := kv.Put(k, k*10); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	got, err := kv.Scan(5, 7)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 7 {
		t.Fatalf("Scan returned %d pairs, want 7", len(got))
	}
	for i, pair := range got {
		want := uint64(5 + i)
		if pair.Key != want || pair.Val != want*10 {
			t.Fatalf("Scan[%d] = {%d,%d}, want {%d,%d}", i, pair.Key, pair.Val, want, want*10)
		}
	}
	if n, err := kv.Check(); err != nil || n != 20 {
		t.Fatalf("Check = %d,%v want 20,nil", n, err)
	}
}

func TestKVBatchCrossShard(t *testing.T) {
	kv := newKV(t, 4)
	for k := uint64(1); k <= 8; k++ {
		if _, err := kv.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// One batch touching every shard: upserts and deletes together.
	err := kv.Batch([]BatchOp{
		{Key: 1, Val: 100},
		{Key: 2, Del: true},
		{Key: 3, Val: 300},
		{Key: 4, Del: true},
		{Key: 101, Val: 1010}, // created by the batch
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	want := map[uint64]uint64{1: 100, 3: 300, 5: 5, 6: 6, 7: 7, 8: 8, 101: 1010}
	for k := uint64(1); k <= 101; k++ {
		v, ok, err := kv.Get(k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		wv, wok := want[k]
		if ok != wok || (ok && v != wv) {
			t.Fatalf("Get(%d) = %d,%v want %d,%v", k, v, ok, wv, wok)
		}
	}
}

// TestKVConcurrent drives writers on disjoint key residues (distinct
// shards) plus concurrent scanners, then checks the final store against
// each writer's model. The heavier mixed-key linearizability stress lives
// in internal/lincheck.
func TestKVConcurrent(t *testing.T) {
	const workers = 4
	const iters = 300
	kv := newKV(t, workers)
	rng := randtest.New(t, 99)

	models := make([]map[uint64]uint64, workers)
	errs := make([]error, workers)
	seeds := make([]int64, workers)
	for w := range seeds {
		seeds[w] = rng.Int63()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seeds[w]))
			model := make(map[uint64]uint64)
			models[w] = model
			for i := 0; i < iters; i++ {
				// Keys congruent to w mod workers route to one shard and
				// never collide with another writer.
				key := uint64(r.Intn(64))*workers + uint64(w)
				switch r.Intn(3) {
				case 0, 1:
					val := r.Uint64()
					if _, err := kv.Put(key, val); err != nil {
						errs[w] = fmt.Errorf("Put(%d): %w", key, err)
						return
					}
					model[key] = val
				case 2:
					if _, err := kv.Delete(key); err != nil {
						errs[w] = fmt.Errorf("Delete(%d): %w", key, err)
						return
					}
					delete(model, key)
				}
			}
		}(w)
	}
	// Scanners run against the moving store; they only assert well-formed
	// ascending output.
	stop := make(chan struct{})
	var scanErr error
	var scanWg sync.WaitGroup
	scanWg.Add(1)
	go func() {
		defer scanWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := kv.Scan(0, 50)
			if err != nil {
				scanErr = err
				return
			}
			for i := 1; i < len(got); i++ {
				if got[i].Key <= got[i-1].Key {
					scanErr = fmt.Errorf("scan out of order at %d: %d then %d", i, got[i-1].Key, got[i].Key)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	scanWg.Wait()
	if scanErr != nil {
		t.Fatalf("scanner: %v", scanErr)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	total := 0
	for w, model := range models {
		total += len(model)
		for k, v := range model {
			gv, ok, err := kv.Get(k)
			if err != nil || !ok || gv != v {
				t.Fatalf("worker %d key %d: got %d,%v,%v want %d,true,nil", w, k, gv, ok, err, v)
			}
		}
	}
	if n, err := kv.Check(); err != nil || n != total {
		t.Fatalf("Check = %d,%v want %d,nil", n, err, total)
	}
}
