// Package objstore provides KV, the concurrent persistent key-value store
// over the sharded heap (pmem.Sharded) that cmd/potserve fronts. It is the
// subject the linearizability harness (internal/lincheck) and the MVCC and
// cluster crash campaigns (internal/crashtest) prove the concurrency layer
// with.
package objstore

import (
	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pds"
	"potgo/internal/pmem"
)

// txCtx is the pds.Ctx that routes structure mutations through a
// handle-based heap transaction, with the per-transaction snapshot dedup
// the Ctx contract requires. With tx nil it performs plain (setup-time,
// non-crash-safe) operations.
type txCtx struct {
	h       *pmem.Heap
	tx      *pmem.Tx
	alloc   *pmem.Pool
	touched map[oid.OID]bool
}

var _ pds.Ctx = (*txCtx)(nil)

func (c *txCtx) bind(tx *pmem.Tx) {
	c.tx = tx
	if c.touched == nil {
		c.touched = make(map[oid.OID]bool, 8)
	} else {
		// Reusing the map keeps its buckets, so a long-lived ctx (the per-
		// shard write ctx in KV) stops allocating once it has seen a
		// typical transaction's working set.
		clear(c.touched)
	}
}

func (c *txCtx) Heap() *pmem.Heap { return c.h }

func (c *txCtx) Alloc(_ uint64, size uint32) (oid.OID, error) {
	if c.tx != nil {
		return c.tx.Alloc(c.alloc, size)
	}
	return c.h.Alloc(c.alloc, size)
}

func (c *txCtx) Free(o oid.OID) error {
	if c.tx != nil {
		return c.tx.Free(o)
	}
	return c.h.Free(o)
}

func (c *txCtx) Touch(o oid.OID, size uint32) error {
	if c.tx == nil {
		return nil
	}
	if c.touched[o] {
		return nil
	}
	if err := c.tx.AddRange(o, size); err != nil {
		return err
	}
	c.touched[o] = true
	return nil
}

// bumpCounter snapshots and increments a persistent op counter inside the
// current transaction. Because the counter commits atomically with the
// operation, its recovered value tells a verifier exactly how many
// operations of the (per-shard, lock-serialized) journal became durable.
func bumpCounter(ctx *txCtx, counter oid.OID) error {
	if err := ctx.Touch(counter, 8); err != nil {
		return err
	}
	ref, err := ctx.h.Deref(counter, isa.RZ)
	if err != nil {
		return err
	}
	w, err := ref.Load64(0)
	if err != nil {
		return err
	}
	return ref.Store64(0, w.V+1, w.Reg)
}

// counterValue reads a persistent op counter.
func counterValue(h *pmem.Heap, counter oid.OID) (uint64, error) {
	ref, err := h.Deref(counter, isa.RZ)
	if err != nil {
		return 0, err
	}
	w, err := ref.Load64(0)
	return w.V, err
}
