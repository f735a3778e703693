package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockOrder enforces the shard/latch locking protocol:
//
//  1. Shard (pool) locks are acquired one set at a time. Holding any shard
//     lock while acquiring another — directly, through a scoped helper
//     (View/Update/Tx), or through a callee that acquires one — risks the
//     ABBA deadlock the ascending-order helpers exist to prevent; multi-
//     shard sets must go through LockShardMask / the scoped helpers, whose
//     ascending iteration the analyzer trusts (their loops acquire many
//     locks under a single ordered discipline).
//  2. Latches order before shard locks (see pmem/latch.go): acquiring a
//     latch while a shard lock is held inverts the documented order and is
//     flagged. The converse — taking shard locks under a latch — is the
//     sanctioned idiom (crashtest.Multi latches anchors, then opens a
//     sharded Tx).
//  3. Direct sync.Mutex/RWMutex operations on sharded state (a mutex drawn
//     from a slice, or a mutex field of a slice element) are only allowed
//     inside the owning type's locking helpers (methods of the owner whose
//     name contains "lock"); everywhere else the ordered helpers must be
//     used.
//
// The analyzer is interprocedural through Summaries: a call to a function
// whose summary acquires locks counts as that acquisition at the call
// site. Balanced callees (acquire + release internally, like KV.Get) also
// count while locks are held — calling into a self-locking function while
// holding a shard lock is a self-deadlock on the same shard.
var LockOrder = &Analyzer{
	Name:     "lockorder",
	Doc:      "check shard/pool lock ordering: one shard set at a time, latches before shard locks, no direct mutex ops on sharded state outside locking helpers",
	Requires: []*Analyzer{Summaries},
	Run:      runLockOrder,
}

// loState counts locks held per domain; pending maps unlock-closure
// variables to the domain they release.
type loState struct {
	shard   int
	latch   int
	pending map[types.Object]int // 0 = shard, 1 = latch
}

func newLoState() *loState { return &loState{pending: make(map[types.Object]int)} }

func (s *loState) Clone() State {
	c := &loState{shard: s.shard, latch: s.latch, pending: make(map[types.Object]int, len(s.pending))}
	for k, v := range s.pending {
		c.pending[k] = v
	}
	return c
}

// Merge joins with may-semantics: a lock held on either path is treated as
// held (max), so a post-branch acquisition is checked against the worst
// path.
func (s *loState) Merge(other State) State {
	o := other.(*loState)
	s.shard = max(s.shard, o.shard)
	s.latch = max(s.latch, o.latch)
	for k, v := range o.pending {
		s.pending[k] = v
	}
	return s
}

func runLockOrder(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		checkDirectMuOps(pass, fd)
		h := &loHooks{pass: pass}
		WalkFunc(pass.TypesInfo, fd.Body, newLoState(), h)
	}
	return nil
}

// checkDirectMuOps flags direct mutex operations on sharded state outside
// the owner type's locking helpers (rule 3). A flat scan, not flow: the
// rule is about where the code lives, not about path state.
func checkDirectMuOps(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		k := classify(info, call)
		if k != kMuLock && k != kMuUnlock {
			return true
		}
		t, ok := shardedMuTarget(info, call)
		if !ok || t.owner == nil {
			return true
		}
		if isLockingHelperOf(info, fd, t.owner) {
			return true
		}
		pass.Reportf(call.Pos(), "direct mutex operation on sharded state of %s outside its locking helpers; use the ordered Lock*/scoped helpers", t.owner.Obj().Name())
		return true
	})
}

// isLockingHelperOf reports whether fd is a method of owner whose name
// marks it as a locking helper (contains "lock", case-insensitively:
// LockPool, lockShards, Unlock, RLock, ...).
func isLockingHelperOf(info *types.Info, fd *ast.FuncDecl, owner *types.Named) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() != owner.Obj() {
		return false
	}
	return strings.Contains(strings.ToLower(fd.Name.Name), "lock")
}

type loHooks struct {
	NopHooks
	pass *Pass
}

func (h *loHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*loState)
	info := h.pass.TypesInfo
	switch classify(info, call) {
	case kShardLock, kShardLockOrdered:
		h.checkShardAcquire(call, s)
		s.shard++
	case kShardScoped:
		h.checkShardAcquire(call, s) // acquires (and releases) internally
	case kShardUnlock, kShardUnlockOrdered:
		if s.shard > 0 {
			s.shard--
		}
	case kLatchLock:
		h.checkLatchAcquire(call, s)
		s.latch++
	case kMuLock:
		if t, ok := shardedMuTarget(info, call); ok {
			if t.latchShaped {
				h.checkLatchAcquire(call, s)
				s.latch++
			} else {
				// Inside the ordered helpers a loop acquires many shard
				// locks under one discipline; the loop body is walked once,
				// so this still counts a single ordered acquisition.
				h.checkShardAcquire(call, s)
				s.shard++
			}
		}
	case kMuUnlock:
		if t, ok := shardedMuTarget(info, call); ok {
			if t.latchShaped {
				if s.latch > 0 {
					s.latch--
				}
			} else if s.shard > 0 {
				s.shard--
			}
		}
	case kOther:
		// An invoked unlock closure releases its domain.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if o := objOf(info, id); o != nil {
				if d, ok := s.pending[o]; ok {
					delete(s.pending, o)
					if d == 1 {
						if s.latch > 0 {
							s.latch--
						}
					} else if s.shard > 0 {
						s.shard--
					}
					return s
				}
			}
		}
		// Interprocedural: the callee's summary stands in for its body.
		if f := callee(info, call); f != nil {
			if sum := h.pass.Summary(f); sum != nil {
				switch sum.ShardEffect {
				case LockAcquires:
					h.checkShardAcquire(call, s)
					s.shard++
				case LockBalanced:
					h.checkShardAcquire(call, s)
				case LockReleases:
					if s.shard > 0 {
						s.shard--
					}
				}
				switch sum.LatchEffect {
				case LockAcquires:
					h.checkLatchAcquire(call, s)
					s.latch++
				case LockBalanced:
					h.checkLatchAcquire(call, s)
				case LockReleases:
					if s.latch > 0 {
						s.latch--
					}
				}
			}
		}
	}
	return s
}

func (h *loHooks) checkShardAcquire(call *ast.CallExpr, s *loState) {
	if s.shard > 0 {
		h.pass.Reportf(call.Pos(), "shard lock acquired while a shard lock is already held; acquire multi-shard sets in one ordered operation (LockShardMask or a scoped helper)")
	}
}

func (h *loHooks) checkLatchAcquire(call *ast.CallExpr, s *loState) {
	if s.shard > 0 {
		h.pass.Reportf(call.Pos(), "latch acquired while holding a shard lock; lock order is latches before shard locks")
	}
}

// OnAssign binds unlock-closure variables produced by acquisitions:
// `u := lt.Lock(o)` makes a later `u()` release the latch domain.
func (h *loHooks) OnAssign(lhs, rhs []ast.Expr, st State) State {
	s := st.(*loState)
	info := h.pass.TypesInfo
	for i, r := range rhs {
		call, ok := ast.Unparen(r).(*ast.CallExpr)
		if !ok || i >= len(lhs) {
			continue
		}
		d, ok := acquireDomainOf(h.pass, call)
		if !ok {
			continue
		}
		if id, ok := lhs[i].(*ast.Ident); ok {
			if o := objOf(info, id); o != nil {
				s.pending[o] = d
			}
		}
	}
	return s
}

// OnHavoc drops pending bindings for loop-assigned variables.
func (h *loHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	s := st.(*loState)
	for o := range assigned {
		delete(s.pending, o)
	}
	return s
}

// acquireDomainOf classifies call as a lock acquisition (directly or via
// summary) and returns its domain (0 = shard, 1 = latch).
func acquireDomainOf(pass *Pass, call *ast.CallExpr) (int, bool) {
	switch classify(pass.TypesInfo, call) {
	case kShardLock, kShardLockOrdered:
		return 0, true
	case kLatchLock:
		return 1, true
	}
	if f := callee(pass.TypesInfo, call); f != nil {
		if sum := pass.Summary(f); sum != nil {
			if sum.LatchEffect == LockAcquires {
				return 1, true
			}
			if sum.ShardEffect == LockAcquires {
				return 0, true
			}
		}
	}
	return 0, false
}
