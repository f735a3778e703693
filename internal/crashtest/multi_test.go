package crashtest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"potgo/internal/nvmsim"
	"potgo/internal/pmem"
	"potgo/internal/randtest"
)

func newMulti(t *testing.T) *Multi {
	t.Helper()
	sh, err := pmem.NewSharded(pmem.NewStore(), 4, 1)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	m, err := CreateMulti(sh, "ms")
	if err != nil {
		t.Fatalf("CreateMulti: %v", err)
	}
	return m
}

func TestMultiBasicAndJournal(t *testing.T) {
	m := newMulti(t)
	for kind := range Kinds {
		did, err := m.Add(kind, 10)
		if err != nil || !did {
			t.Fatalf("%s: Add(10) = %v,%v", Kinds[kind], did, err)
		}
		did, err = m.Add(kind, 10)
		if err != nil || did {
			t.Fatalf("%s: duplicate Add(10) = %v,%v want no-op", Kinds[kind], did, err)
		}
		if has, err := m.Has(kind, 10); err != nil || !has {
			t.Fatalf("%s: Has(10) = %v,%v", Kinds[kind], has, err)
		}
		did, err = m.Remove(kind, 10)
		if err != nil || !did {
			t.Fatalf("%s: Remove(10) = %v,%v", Kinds[kind], did, err)
		}
		did, err = m.Remove(kind, 10)
		if err != nil || did {
			t.Fatalf("%s: double Remove(10) = %v,%v want no-op", Kinds[kind], did, err)
		}
		if has, err := m.Has(kind, 10); err != nil || has {
			t.Fatalf("%s: Has(10) after remove = %v,%v", Kinds[kind], has, err)
		}

		// Two effective ops: the journal and the persistent counter agree.
		j := m.Journal(kind)
		if len(j) != 2 || j[0].Op != OpAdd || j[1].Op != OpRemove {
			t.Fatalf("%s: journal = %+v, want [add, remove]", Kinds[kind], j)
		}
		c, err := m.Counter(kind)
		if err != nil || c != 2 {
			t.Fatalf("%s: counter = %d,%v want 2", Kinds[kind], c, err)
		}
	}
}

func TestMultiTransfer(t *testing.T) {
	m := newMulti(t)
	const list, btree = 0, 3
	if _, err := m.Add(list, 5); err != nil {
		t.Fatal(err)
	}

	did, err := m.Transfer(list, btree, 5)
	if err != nil || !did {
		t.Fatalf("Transfer = %v,%v", did, err)
	}
	if has, _ := m.Has(list, 5); has {
		t.Fatal("key still in source after transfer")
	}
	if has, _ := m.Has(btree, 5); !has {
		t.Fatal("key not in destination after transfer")
	}

	// Absent-in-source and present-in-destination transfers are no-ops.
	if did, err := m.Transfer(list, btree, 5); err != nil || did {
		t.Fatalf("transfer of absent key = %v,%v want no-op", did, err)
	}
	if _, err := m.Add(list, 5); err != nil {
		t.Fatal(err)
	}
	if did, err := m.Transfer(list, btree, 5); err != nil || did {
		t.Fatalf("transfer onto occupied destination = %v,%v want no-op", did, err)
	}

	// The two journal halves carry one matching transfer id.
	jf, jt := m.Journal(list), m.Journal(btree)
	var outID, inID uint64
	for _, e := range jf {
		if e.Op == OpXferOut {
			outID = e.XferID
		}
	}
	for _, e := range jt {
		if e.Op == OpXferIn {
			inID = e.XferID
		}
	}
	if outID == 0 || outID != inID {
		t.Fatalf("transfer ids: out=%d in=%d", outID, inID)
	}

	if _, err := m.Transfer(list, list, 5); err == nil {
		t.Fatal("self-transfer accepted")
	}
}

// TestMultiConcurrentStress churns every structure from its own goroutine
// with random ops plus cross-structure transfers, then proves each
// journal's replay matches both the persistent counter and the recovered
// membership.
func TestMultiConcurrentStress(t *testing.T) {
	m := newMulti(t)
	rng := randtest.New(t, 7)
	const iters = 200
	const keySpace = 24

	errs := make([]error, len(Kinds))
	seeds := make([]int64, len(Kinds))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var wg sync.WaitGroup
	for kind := range Kinds {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seeds[kind]))
			for i := 0; i < iters; i++ {
				key := uint64(r.Intn(keySpace) + 1)
				switch r.Intn(4) {
				case 0, 1:
					if _, err := m.Add(kind, key); err != nil {
						errs[kind] = fmt.Errorf("Add(%d): %w", key, err)
						return
					}
				case 2:
					if _, err := m.Remove(kind, key); err != nil {
						errs[kind] = fmt.Errorf("Remove(%d): %w", key, err)
						return
					}
				case 3:
					other := r.Intn(len(Kinds))
					if other == kind {
						other = (other + 1) % len(Kinds)
					}
					if _, err := m.Transfer(kind, other, key); err != nil {
						errs[kind] = fmt.Errorf("Transfer(%d->%d, %d): %w", kind, other, key, err)
						return
					}
				}
			}
		}(kind)
	}
	wg.Wait()
	for kind, err := range errs {
		if err != nil {
			t.Fatalf("%s worker: %v", Kinds[kind], err)
		}
	}

	counts, err := m.Check()
	if err != nil {
		t.Fatal(err)
	}
	for kind := range Kinds {
		journal := m.Journal(kind)
		c, err := m.Counter(kind)
		if err != nil {
			t.Fatal(err)
		}
		if c != uint64(len(journal)) {
			t.Fatalf("%s: counter %d but journal has %d entries", Kinds[kind], c, len(journal))
		}
		model := ReplayJournal(journal, len(journal))
		if counts[kind] != len(model) {
			t.Fatalf("%s: %d keys, journal replay has %d", Kinds[kind], counts[kind], len(model))
		}
		for key := uint64(1); key <= keySpace; key++ {
			has, err := m.Has(kind, key)
			if err != nil {
				t.Fatal(err)
			}
			if has != model[key] {
				t.Fatalf("%s key %d: present=%v, replay says %v", Kinds[kind], key, has, model[key])
			}
		}
	}
}

// TestMultiReopen syncs, power-cycles and reattaches the store, proving the
// open-all-then-recover-all path restores every structure.
func TestMultiReopen(t *testing.T) {
	m := newMulti(t)
	for kind := range Kinds {
		for key := uint64(1); key <= 8; key++ {
			if _, err := m.Add(kind, key*uint64(kind+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Transfer(0, 1, 2); err != nil {
		t.Fatal(err)
	}

	journals := make([][]Entry, len(Kinds))
	for kind := range Kinds {
		journals[kind] = m.Journal(kind)
	}

	sh := m.Sharded()
	if err := sh.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Crash(nvmsim.DropAllPolicy()); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenMulti(sh, "ms")
	if err != nil {
		t.Fatalf("OpenMulti: %v", err)
	}
	counts, err := m2.Check()
	if err != nil {
		t.Fatal(err)
	}
	for kind := range Kinds {
		model := ReplayJournal(journals[kind], len(journals[kind]))
		if counts[kind] != len(model) {
			t.Fatalf("%s: %d keys after reopen, want %d", Kinds[kind], counts[kind], len(model))
		}
		c, err := m2.Counter(kind)
		if err != nil {
			t.Fatal(err)
		}
		if c != uint64(len(journals[kind])) {
			t.Fatalf("%s: counter %d after reopen, want %d", Kinds[kind], c, len(journals[kind]))
		}
		for key := range model {
			has, err := m2.Has(kind, key)
			if err != nil {
				t.Fatal(err)
			}
			if !has {
				t.Fatalf("%s: key %d lost across reopen", Kinds[kind], key)
			}
		}
	}
}
