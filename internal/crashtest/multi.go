package crashtest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// Kinds names the five persistent structures a Multi hosts, in pool-layout
// order. Indices into a Multi are indices into this slice.
var Kinds = []string{"list", "bst", "rbt", "btree", "bplus"}

// Journal op codes.
const (
	OpAdd     = byte(1) // key inserted
	OpRemove  = byte(2) // key removed
	OpXferOut = byte(3) // key left this structure as half of a transfer
	OpXferIn  = byte(4) // key entered this structure as half of a transfer
)

// Entry is one committed-or-attempted operation in a structure's volatile
// journal. Entries are appended inside the transaction, under the
// structure's latch, so journal order is commit order; a crash can leave at
// most a suffix of entries whose transactions never committed (the domain
// poisons itself at the crash point, so no later operation on any structure
// can commit). XferID links the two halves of a Transfer.
type Entry struct {
	Op     byte
	Key    uint64
	XferID uint64
}

// Multi hosts one instance of each pds structure, each in its own pool with
// its own persistent op counter, fronted by per-structure latches so
// operations on different structures run (and commit) in parallel while
// operations on one structure serialize. It is the subject of the
// concurrent crash campaign and the linearizability stress test: the
// counters and journals let a verifier reconstruct exactly which operations
// became durable. Values are not part of its contract (bplus stores
// val=key).
type Multi struct {
	sh      *pmem.Sharded
	latches *pmem.LatchTable
	structs [5]mstruct
	xferID  uint64 // global transfer-id source
}

// mstruct is one hosted structure: its pool, adapter, persistent counter
// and volatile journal.
type mstruct struct {
	pool    *pmem.Pool
	anchor  oid.OID // latch identity for the whole structure
	counter oid.OID
	ops     structOps

	mu      sync.Mutex // guards journal (latch already serializes writers; Verify reads after a crash)
	journal []Entry
}

func multiPoolName(prefix, kind string) string { return prefix + "-" + kind }

func (s *mstruct) bind(h *pmem.Heap, p *pmem.Pool, kind string) error {
	ops, root, err := bindStructure(h, p, kind)
	if err != nil {
		return err
	}
	s.pool, s.ops = p, ops
	s.anchor, s.counter = root.FieldAt(0), root.FieldAt(8)
	return nil
}

// CreateMulti creates the five structure pools (prefix-list … prefix-bplus).
func CreateMulti(sh *pmem.Sharded, prefix string) (*Multi, error) {
	m := &Multi{sh: sh, latches: pmem.NewLatchTable(64)}
	for i, kind := range Kinds {
		p, err := sh.CreateSized(multiPoolName(prefix, kind), 1<<20, 128*1024)
		if err != nil {
			return nil, err
		}
		if err := m.structs[i].bind(sh.Heap(), p, kind); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// OpenMulti reattaches after a crash: all pools open first, then all undo
// logs recover (a transfer's single log may reference objects in either
// involved pool), then the structures bind.
func OpenMulti(sh *pmem.Sharded, prefix string) (*Multi, error) {
	m := &Multi{sh: sh, latches: pmem.NewLatchTable(64)}
	var pools [5]*pmem.Pool
	for i, kind := range Kinds {
		p, err := sh.Open(multiPoolName(prefix, kind))
		if err != nil {
			return nil, err
		}
		pools[i] = p
	}
	for _, p := range pools {
		if err := sh.Recover(p); err != nil {
			return nil, err
		}
	}
	for i, kind := range Kinds {
		if err := m.structs[i].bind(sh.Heap(), pools[i], kind); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Sharded exposes the underlying sharded heap.
func (m *Multi) Sharded() *pmem.Sharded { return m.sh }

func (m *Multi) at(kind int) *mstruct { return &m.structs[kind] }

// ctx returns a fresh structure context for s, bound to t (nil for reads).
func (m *Multi) ctx(s *mstruct, t *pmem.Tx) *txCtx {
	c := &txCtx{h: m.sh.Heap(), p: s.pool}
	c.bind(t)
	return c
}

// bump advances a structure's persistent op counter inside the transaction.
func (m *Multi) bump(ctx *txCtx, s *mstruct) error {
	c, err := load64(m.sh.Heap(), s.counter)
	if err != nil {
		return err
	}
	return ctx.storeCounter(s.counter, c+1)
}

func (s *mstruct) appendEntry(e Entry) {
	s.mu.Lock()
	s.journal = append(s.journal, e)
	s.mu.Unlock()
}

func (s *mstruct) popEntry() {
	s.mu.Lock()
	s.journal = s.journal[:len(s.journal)-1]
	s.mu.Unlock()
}

// Journal snapshots a structure's journal (call only with workers stopped —
// after the stress run joins, or after a crash).
func (m *Multi) Journal(kind int) []Entry {
	s := m.at(kind)
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, len(s.journal))
	copy(out, s.journal)
	return out
}

// Counter reads a structure's persistent op counter (its committed journal
// prefix length).
func (m *Multi) Counter(kind int) (uint64, error) {
	s := m.at(kind)
	var c uint64
	err := m.sh.View([]oid.PoolID{s.pool.ID()}, func() error {
		var cerr error
		c, cerr = load64(m.sh.Heap(), s.counter)
		return cerr
	})
	return c, err
}

// Has reports whether key is in the structure. Latch order: structure read
// latch, then shard read lock.
func (m *Multi) Has(kind int, key uint64) (bool, error) {
	s := m.at(kind)
	defer m.latches.RLock(s.anchor)()
	var present bool
	err := m.sh.View([]oid.PoolID{s.pool.ID()}, func() error {
		var cerr error
		present, _, cerr = s.ops.get(m.ctx(s, nil), key)
		return cerr
	})
	return present, err
}

// Add inserts key, reporting whether it was absent (false = no-op). The
// whole operation — membership check, transactional insert, counter bump,
// journal append, commit — runs under the structure's write latch, so
// journal order is commit order.
func (m *Multi) Add(kind int, key uint64) (bool, error) {
	return m.update(kind, key, true)
}

// Remove deletes key, reporting whether it was present.
func (m *Multi) Remove(kind int, key uint64) (bool, error) {
	return m.update(kind, key, false)
}

func (m *Multi) update(kind int, key uint64, add bool) (bool, error) {
	s := m.at(kind)
	defer m.latches.Lock(s.anchor)()
	did := false
	err := m.sh.Tx(s.pool, nil, func(t *pmem.Tx) error {
		ctx := m.ctx(s, t)
		present, _, err := s.ops.get(ctx, key)
		if err != nil || present == add {
			return err
		}
		op := OpRemove
		if add {
			op = OpAdd
			err = s.ops.insert(ctx, key, key)
		} else {
			err = s.ops.remove(ctx, key)
		}
		if err != nil {
			return err
		}
		if err := m.bump(ctx, s); err != nil {
			return err
		}
		s.appendEntry(Entry{Op: op, Key: key})
		did = true
		return nil
	})
	if err != nil && did {
		s.popEntry() // the transaction aborted cleanly; the entry never committed
	}
	return did && err == nil, err
}

// Transfer atomically moves key from one structure to another: one
// multi-pool transaction removes it from `from` and inserts it into `to`,
// bumping both persistent counters, so a crash can never observe the key in
// both structures or in neither (of a transferred pair). It reports whether
// the move happened (requires key present in from and absent in to). Both
// structure latches are taken through the LatchTable's sorted-slot order,
// then both shards through the heap's sorted-shard order — no cycles.
func (m *Multi) Transfer(from, to int, key uint64) (bool, error) {
	if from == to {
		return false, fmt.Errorf("crashtest: transfer from structure %d to itself", from)
	}
	sf, st := m.at(from), m.at(to)
	defer m.latches.Lock(sf.anchor, st.anchor)()
	id := atomic.AddUint64(&m.xferID, 1)
	did := false
	err := m.sh.Tx(sf.pool, []oid.PoolID{st.pool.ID()}, func(t *pmem.Tx) error {
		fctx, tctx := m.ctx(sf, t), m.ctx(st, t)
		inFrom, _, err := sf.ops.get(fctx, key)
		if err != nil {
			return err
		}
		inTo, _, err := st.ops.get(tctx, key)
		if err != nil || !inFrom || inTo {
			return err
		}
		if err := sf.ops.remove(fctx, key); err != nil {
			return err
		}
		if err := st.ops.insert(tctx, key, key); err != nil {
			return err
		}
		if err := m.bump(fctx, sf); err != nil {
			return err
		}
		if err := m.bump(tctx, st); err != nil {
			return err
		}
		sf.appendEntry(Entry{Op: OpXferOut, Key: key, XferID: id})
		st.appendEntry(Entry{Op: OpXferIn, Key: key, XferID: id})
		did = true
		return nil
	})
	if err != nil && did {
		st.popEntry()
		sf.popEntry()
	}
	return did && err == nil, err
}

// Check runs every structure's invariant sweep and returns the per-kind key
// counts.
func (m *Multi) Check() ([5]int, error) {
	var counts [5]int
	for i := range m.structs {
		s := m.at(i)
		unlatch := m.latches.RLock(s.anchor)
		err := m.sh.View([]oid.PoolID{s.pool.ID()}, func() error {
			n, cerr := s.ops.check(m.ctx(s, nil))
			counts[i] = n
			return cerr
		})
		unlatch()
		if err != nil {
			return counts, fmt.Errorf("%s: %w", Kinds[i], err)
		}
	}
	return counts, nil
}

// CheckHeap runs the heap allocator's structural sweep over every
// structure pool (free lists, block headers, bump bounds).
func (m *Multi) CheckHeap() error {
	ids := make([]oid.PoolID, len(m.structs))
	for i := range m.structs {
		ids[i] = m.structs[i].pool.ID()
	}
	return m.sh.View(ids, func() error {
		for i := range m.structs {
			if err := m.sh.Heap().CheckPool(m.structs[i].pool); err != nil {
				return fmt.Errorf("%s: %w", Kinds[i], err)
			}
		}
		return nil
	})
}

// ReplayJournal folds the first n entries of a journal into the membership
// set a structure should hold — the model side of crash verification.
func ReplayJournal(journal []Entry, n int) map[uint64]bool {
	set := make(map[uint64]bool)
	for _, e := range journal[:n] {
		switch e.Op {
		case OpAdd, OpXferIn:
			set[e.Key] = true
		case OpRemove, OpXferOut:
			delete(set, e.Key)
		}
	}
	return set
}
