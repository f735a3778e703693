package lincheck_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"potgo/internal/crashtest"
	"potgo/internal/lincheck"
	"potgo/internal/pmem"
	"potgo/internal/randtest"
)

// The live stress: N workers fire add/remove/has/transfer at the Multi
// store's five persistent structures, every completed call is recorded,
// and the checker proves the history linearizable against the obvious
// sequential specification. Partitioning is per key: a key's state is the
// set of structures currently holding it (a transfer touches two
// structures but one key, so per-key sub-histories stay self-contained —
// Herlihy & Wing locality does the rest).

const (
	msAdd = byte(iota + 1)
	msRemove
	msHas
	msXfer
)

// msIn is comparable (the checker compares inputs/outputs with ==).
type msIn struct {
	Op   byte
	Kind int8 // structure for add/remove/has; source for xfer
	To   int8 // destination for xfer
	Key  uint64
}

func multiModel() lincheck.Model {
	return lincheck.Model{
		Init: func() any { return uint8(0) },
		Step: func(s, in any) (any, any) {
			mask := s.(uint8)
			i := in.(msIn)
			bit := uint8(1) << uint(i.Kind)
			switch i.Op {
			case msAdd:
				if mask&bit != 0 {
					return mask, false
				}
				return mask | bit, true
			case msRemove:
				if mask&bit == 0 {
					return mask, false
				}
				return mask &^ bit, true
			case msHas:
				return mask, mask&bit != 0
			case msXfer:
				tbit := uint8(1) << uint(i.To)
				if mask&bit == 0 || mask&tbit != 0 {
					return mask, false
				}
				return mask&^bit | tbit, true
			}
			panic(fmt.Sprintf("unknown op %d", i.Op))
		},
		Repr:      func(s any) string { return string([]byte{s.(uint8)}) },
		Partition: func(op lincheck.Op) any { return op.Input.(msIn).Key },
	}
}

func TestMultiLinearizable(t *testing.T) {
	const workers = 8
	const keySpace = 48
	perStruct := 10000
	if testing.Short() {
		perStruct = 1000
	}
	// Uniform structure choice spreads total ops evenly; pad by 25% so
	// every structure clears the per-structure floor with margin.
	totalOps := perStruct * len(crashtest.Kinds) * 5 / 4

	sh, err := pmem.NewSharded(pmem.NewStore(), 8, 1)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	m, err := crashtest.CreateMulti(sh, "lin")
	if err != nil {
		t.Fatalf("CreateMulti: %v", err)
	}

	// Worker streams derive from the one master seed, so a -seed override
	// replays the entire run, not just the shuffle of worker seeds.
	rng := randtest.New(t, 2024)
	seeds := make([]int64, workers)
	for w := range seeds {
		seeds[w] = rng.Int63()
	}

	rec := lincheck.NewRecorder()
	errs := make([]error, workers)
	perWorker := totalOps / workers

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seeds[w]))
			for i := 0; i < perWorker; i++ {
				kind := int8(r.Intn(len(crashtest.Kinds)))
				key := uint64(r.Intn(keySpace) + 1)
				var in msIn
				switch r.Intn(8) {
				case 0, 1, 2:
					in = msIn{Op: msAdd, Kind: kind, Key: key}
				case 3, 4:
					in = msIn{Op: msRemove, Kind: kind, Key: key}
				case 5, 6:
					in = msIn{Op: msHas, Kind: kind, Key: key}
				case 7:
					to := int8(r.Intn(len(crashtest.Kinds)))
					if to == kind {
						to = (to + 1) % int8(len(crashtest.Kinds))
					}
					in = msIn{Op: msXfer, Kind: kind, To: to, Key: key}
				}

				p := rec.Begin(w, in)
				var out bool
				var err error
				switch in.Op {
				case msAdd:
					out, err = m.Add(int(in.Kind), in.Key)
				case msRemove:
					out, err = m.Remove(int(in.Kind), in.Key)
				case msHas:
					out, err = m.Has(int(in.Kind), in.Key)
				case msXfer:
					out, err = m.Transfer(int(in.Kind), int(in.To), in.Key)
				}
				if err != nil {
					errs[w] = fmt.Errorf("op %d %+v: %w", i, in, err)
					return
				}
				rec.End(p, out)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	perStructOps := make([]int, len(crashtest.Kinds))
	history := rec.History()
	for _, op := range history {
		in := op.Input.(msIn)
		perStructOps[in.Kind]++
		if in.Op == msXfer {
			perStructOps[in.To]++
		}
	}
	t.Logf("history: %d ops total, per structure %v", len(history), perStructOps)
	if !testing.Short() {
		for kind, n := range perStructOps {
			if n < 10000 {
				t.Fatalf("structure %s saw %d ops, below the 10k stress floor", crashtest.Kinds[kind], n)
			}
		}
	}

	if err := lincheck.Check(multiModel(), history); err != nil {
		t.Fatalf("history not linearizable: %v", err)
	}

	// The store itself must also still be internally consistent.
	if _, err := m.Check(); err != nil {
		t.Fatalf("structure invariants after stress: %v", err)
	}
}
