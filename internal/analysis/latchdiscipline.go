package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LatchDiscipline enforces the two latch-protocol rules from pmem/latch.go
// and crashtest/multi.go:
//
//  1. Sorted acquisition: a set of slice-indexed locks (latch slots, shard
//     indices) is acquired in ascending order, which in this codebase means
//     the index set is sorted and deduplicated before the acquisition loop.
//     The analyzer tracks []int provenance through the flow: a slice is
//     "sorted" after sort.Ints (and friends) or when produced by a function
//     whose summary says it returns a sorted []int (LatchTable.slots,
//     Sharded.shardSet); ranging over an unsorted module-produced []int and
//     locking on the drawn value is flagged. A function that locks on
//     values drawn from a []int parameter (Sharded.lockShards) exports a
//     "needs sorted argument" fact instead, enforced at its call sites —
//     interprocedurally, through the FactStore. Range keys and plain loop
//     induction variables index ascending by construction and are allowed.
//  2. Mutation under latch: in methods of a type that owns a latch table
//     (a struct field whose type name contains "Latch"), a heap mutation —
//     opening a sharded Tx/Update or a Heap.Begin transaction — on a path
//     where no latch has been acquired is flagged. Reads (View) need no
//     latch; constructors are free functions in this codebase and are not
//     methods, so they are naturally exempt.
var LatchDiscipline = &Analyzer{
	Name:     "latchdiscipline",
	Doc:      "check latch slot sets are sorted+deduplicated before acquisition and heap mutations in latch-owning types hold the latch",
	Requires: []*Analyzer{Summaries},
	Run:      runLatchDiscipline,
}

// ldFact marks parameters that must receive sorted slot slices.
type ldFact struct {
	needsSorted map[int]bool // parameter index
}

// provenance of a range-drawn value variable.
type ldDrawn struct {
	kind  int // ldOK / ldBad / ldParam
	param *types.Var
}

const (
	ldOK    = iota // sorted source or ascending index
	ldBad          // known-unsorted module-produced []int
	ldParam        // drawn from a []int parameter: obligation moves to callers
)

type ldState struct {
	sorted   map[types.Object]bool    // []int vars established sorted
	unsorted map[types.Object]bool    // []int vars produced unsorted
	drawn    map[types.Object]ldDrawn // range value vars
	latched  bool                     // a latch has been acquired on this path
}

func newLdState() *ldState {
	return &ldState{
		sorted:   make(map[types.Object]bool),
		unsorted: make(map[types.Object]bool),
		drawn:    make(map[types.Object]ldDrawn),
	}
}

func (s *ldState) Clone() State {
	c := newLdState()
	c.latched = s.latched
	for k, v := range s.sorted {
		c.sorted[k] = v
	}
	for k, v := range s.unsorted {
		c.unsorted[k] = v
	}
	for k, v := range s.drawn {
		c.drawn[k] = v
	}
	return c
}

// Merge: sortedness must hold on every path (intersection), unsortedness
// may hold (union), drawn entries survive only when both paths agree, and
// a latch counts as held only when held on every path.
func (s *ldState) Merge(other State) State {
	o := other.(*ldState)
	for k := range s.sorted {
		if !o.sorted[k] {
			delete(s.sorted, k)
		}
	}
	for k, v := range o.unsorted {
		s.unsorted[k] = v
	}
	for k, v := range s.drawn {
		if ov, ok := o.drawn[k]; !ok || ov != v {
			delete(s.drawn, k)
		}
	}
	s.latched = s.latched && o.latched
	return s
}

func runLatchDiscipline(pass *Pass) error {
	decls := funcDecls(pass.Files)
	// Rounds 0–1 collect needs-sorted parameter facts (two rounds so a
	// fact can propagate one level of param-to-param forwarding within the
	// package); round 2 reports. Cross-package facts are already final:
	// packages run in dependency order.
	for round := 0; round < 3; round++ {
		for _, fd := range decls {
			h := &ldHooks{
				pass:       pass,
				fd:         fd,
				report:     round == 2,
				params:     paramIndexes(pass.TypesInfo, fd),
				latchOwner: latchOwningMethod(pass.TypesInfo, fd),
			}
			WalkFunc(pass.TypesInfo, fd.Body, newLdState(), h)
			h.exportNeeds()
		}
	}
	return nil
}

// paramIndexes maps fd's parameter objects to their positional index.
func paramIndexes(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	if fd.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if o := info.Defs[name]; o != nil {
				out[o] = i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return out
}

// latchOwningMethod reports whether fd is a method of a struct type that
// owns a latch table (a field whose type name contains "Latch").
func latchOwningMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if p, ok := ft.(*types.Pointer); ok {
			ft = p.Elem()
		}
		if fn, ok := ft.(*types.Named); ok && strings.Contains(fn.Obj().Name(), "Latch") {
			return true
		}
	}
	return false
}

type ldHooks struct {
	NopHooks
	pass       *Pass
	fd         *ast.FuncDecl
	report     bool
	params     map[types.Object]int
	latchOwner bool
	needs      map[int]bool // needs-sorted params discovered this walk
}

// exportNeeds merges discovered parameter obligations into fd's fact.
func (h *ldHooks) exportNeeds() {
	if len(h.needs) == 0 {
		return
	}
	obj, ok := h.pass.TypesInfo.Defs[h.fd.Name].(*types.Func)
	if !ok {
		return
	}
	f, _ := h.pass.ImportObjectFact(obj).(*ldFact)
	if f == nil {
		f = &ldFact{needsSorted: make(map[int]bool)}
	}
	for i := range h.needs {
		f.needsSorted[i] = true
	}
	h.pass.ExportObjectFact(obj, f)
}

func (h *ldHooks) need(i int) {
	if h.needs == nil {
		h.needs = make(map[int]bool)
	}
	h.needs[i] = true
}

// isModuleIntSliceCall reports whether call's static callee is a module
// function returning []int, and whether its summary establishes
// sortedness.
func (h *ldHooks) isModuleIntSliceCall(call *ast.CallExpr) (isIntSlice, sorted bool) {
	f := callee(h.pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil || !strings.HasPrefix(f.Pkg().Path(), "potgo/") {
		return false, false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false, false
	}
	sl, ok := sig.Results().At(0).Type().(*types.Slice)
	if !ok {
		return false, false
	}
	if b, ok := sl.Elem().(*types.Basic); !ok || b.Kind() != types.Int {
		return false, false
	}
	sum := h.pass.Summary(f)
	return true, sum != nil && sum.SortedInts
}

func (h *ldHooks) OnCall(call *ast.CallExpr, st State) State {
	s := st.(*ldState)
	info := h.pass.TypesInfo
	switch classify(info, call) {
	case kSortInts:
		if len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if o := objOf(info, id); o != nil {
					s.sorted[o] = true
					delete(s.unsorted, o)
				}
			}
		}
	case kLatchLock:
		s.latched = true
	case kMuLock:
		if t, ok := shardedMuTarget(info, call); ok {
			h.checkLockIndex(call, t.index, s)
		}
	case kShardScoped:
		if f := callee(info, call); f != nil && (f.Name() == "Tx" || f.Name() == "Update") {
			h.checkMutation(call, s)
		}
	case kHeapBegin:
		h.checkMutation(call, s)
	case kOther:
		if f := callee(info, call); f != nil {
			if sum := h.pass.Summary(f); sum != nil && sum.LatchEffect != LockNone && sum.LatchEffect != LockReleases {
				s.latched = true
			}
			if fact, _ := h.pass.facts.get(LatchDiscipline, f).(*ldFact); fact != nil {
				h.checkSortedArgs(call, fact, s)
			}
		}
	}
	return s
}

// checkMutation flags a heap mutation on a latch-free path in a
// latch-owning type's method.
func (h *ldHooks) checkMutation(call *ast.CallExpr, s *ldState) {
	if h.latchOwner && !s.latched && h.report {
		h.pass.Reportf(call.Pos(), "heap mutation in a latch-owning type without holding the structure latch; acquire the LatchTable latch first")
	}
}

// checkLockIndex applies rule 1 to the index expression of a slice-lock
// acquisition.
func (h *ldHooks) checkLockIndex(call *ast.CallExpr, index ast.Expr, s *ldState) {
	info := h.pass.TypesInfo
	switch e := ast.Unparen(index).(type) {
	case *ast.Ident:
		o := objOf(info, e)
		if o == nil {
			return
		}
		if d, ok := s.drawn[o]; ok {
			switch d.kind {
			case ldBad:
				if h.report {
					h.pass.Reportf(call.Pos(), "lock acquisition indexed by a value drawn from an unsorted slot set; sort and deduplicate the set before acquiring (ascending slot order)")
				}
			case ldParam:
				if i, ok := h.params[d.param]; ok {
					h.need(i)
				}
			}
		}
	case *ast.IndexExpr:
		// idx[i]-style: the slice itself must be sorted.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if o := objOf(info, id); o != nil {
				if s.unsorted[o] && h.report {
					h.pass.Reportf(call.Pos(), "lock acquisition indexed through an unsorted slot set; sort and deduplicate the set before acquiring (ascending slot order)")
				} else if i, ok := h.params[o]; ok && !s.sorted[o] {
					h.need(i)
				}
			}
		}
	}
}

// checkSortedArgs enforces a callee's needs-sorted parameter facts at the
// call site.
func (h *ldHooks) checkSortedArgs(call *ast.CallExpr, fact *ldFact, s *ldState) {
	info := h.pass.TypesInfo
	for i := range fact.needsSorted {
		if i >= len(call.Args) {
			continue
		}
		arg := ast.Unparen(call.Args[i])
		switch a := arg.(type) {
		case *ast.CallExpr:
			if isSlice, sorted := h.isModuleIntSliceCall(a); isSlice && !sorted && h.report {
				h.pass.Reportf(a.Pos(), "argument must be a sorted, deduplicated slot set (callee acquires locks in argument order)")
			}
		case *ast.Ident:
			o := objOf(info, a)
			if o == nil {
				continue
			}
			switch {
			case s.sorted[o]:
			case s.unsorted[o]:
				if h.report {
					h.pass.Reportf(a.Pos(), "argument must be a sorted, deduplicated slot set (callee acquires locks in argument order)")
				}
			default:
				if pi, ok := h.params[o]; ok {
					h.need(pi) // obligation forwards to this function's callers
				}
			}
		}
	}
}

// OnAssign re-derives []int provenance: assignment clears old facts, and a
// module call producing a []int marks the target sorted or unsorted
// according to the callee's summary.
func (h *ldHooks) OnAssign(lhs, rhs []ast.Expr, st State) State {
	s := st.(*ldState)
	if rhs == nil {
		// Range-variable and x++ assignments: OnRange already bound the
		// range variables' provenance; don't clear it here.
		return s
	}
	info := h.pass.TypesInfo
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		o := objOf(info, id)
		if o == nil {
			continue
		}
		delete(s.sorted, o)
		delete(s.unsorted, o)
		delete(s.drawn, o)
		if rhs == nil || i >= len(rhs) {
			continue
		}
		if call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr); ok {
			if isSlice, sorted := h.isModuleIntSliceCall(call); isSlice {
				if sorted {
					s.sorted[o] = true
				} else {
					s.unsorted[o] = true
				}
			}
		}
	}
	return s
}

// OnRange binds the range variables' provenance: keys index ascending;
// values carry the sortedness of the ranged-over []int.
func (h *ldHooks) OnRange(x ast.Expr, key, value ast.Expr, st State) State {
	s := st.(*ldState)
	info := h.pass.TypesInfo
	if id, ok := key.(*ast.Ident); ok && id.Name != "_" {
		if o := objOf(info, id); o != nil {
			s.drawn[o] = ldDrawn{kind: ldOK}
		}
	}
	vid, ok := value.(*ast.Ident)
	if !ok || vid.Name == "_" {
		return s
	}
	vo := objOf(info, vid)
	if vo == nil {
		return s
	}
	if !isIntSliceType(info.TypeOf(x)) {
		return s
	}
	switch src := ast.Unparen(x).(type) {
	case *ast.Ident:
		o := objOf(info, src)
		switch {
		case o == nil:
		case s.sorted[o]:
			s.drawn[vo] = ldDrawn{kind: ldOK}
		case s.unsorted[o]:
			s.drawn[vo] = ldDrawn{kind: ldBad}
		default:
			if _, isParam := h.params[o]; isParam {
				if v, ok := o.(*types.Var); ok {
					s.drawn[vo] = ldDrawn{kind: ldParam, param: v}
				}
			}
		}
	case *ast.CallExpr:
		if isSlice, sorted := h.isModuleIntSliceCall(src); isSlice {
			if sorted {
				s.drawn[vo] = ldDrawn{kind: ldOK}
			} else {
				s.drawn[vo] = ldDrawn{kind: ldBad}
			}
		}
	}
	return s
}

// OnHavoc drops provenance for loop-assigned variables.
func (h *ldHooks) OnHavoc(assigned map[types.Object]bool, st State) State {
	s := st.(*ldState)
	for o := range assigned {
		delete(s.sorted, o)
		delete(s.unsorted, o)
		delete(s.drawn, o)
	}
	return s
}

func isIntSliceType(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().(*types.Basic)
	return ok && b.Kind() == types.Int
}
