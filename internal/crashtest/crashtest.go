// Package crashtest is the adversarial crash-injection engine. It drives a
// Target's transactional workload on a heap whose persistence domain
// (internal/nvmsim) numbers every persistent store, CLWB and SFENCE as an
// event, crashes the world just before a chosen event under an adversarial
// line-loss policy, reopens the durable bytes, recovers, and verifies the
// target's invariants against a deterministic model of the committed
// prefix.
//
// Small workloads are swept exhaustively — every event under every policy;
// large ones are seed-sampled. Every failure carries a deterministic replay
// token (target, event, exact survivor set) and, optionally, a minimized
// counterexample: the smallest set of lost cache lines that still breaks
// recovery, found by greedily restoring dropped lines.
package crashtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"potgo/internal/emit"
	"potgo/internal/nvmsim"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/vm"
)

// MutationSpec weakens the durability plumbing during the workload run —
// the moral equivalent of deleting a Persist call from a structure — so
// campaigns can prove the engine detects a real missing-flush bug rather
// than vacuously passing. Recovery and verification always run unmutated.
type MutationSpec struct {
	// DropCLWBEveryN suppresses every Nth cache-line write-back (1 = all).
	DropCLWBEveryN int `json:"drop_clwb_every_n,omitempty"`
	// DropFenceEveryN suppresses every Nth store fence (1 = all).
	DropFenceEveryN int `json:"drop_fence_every_n,omitempty"`
}

func (m MutationSpec) enabled() bool { return m.DropCLWBEveryN > 0 || m.DropFenceEveryN > 0 }

// mutObserver wraps the heap's persist observer, dropping the selected
// durability instructions before they reach the cache model.
type mutObserver struct {
	spec   MutationSpec
	inner  emit.PersistObserver
	clwbs  int
	fences int
}

func (m *mutObserver) ObserveCLWB(va uint64) {
	m.clwbs++
	if n := m.spec.DropCLWBEveryN; n > 0 && m.clwbs%n == 0 {
		return
	}
	m.inner.ObserveCLWB(va)
}

func (m *mutObserver) ObserveSFence() {
	m.fences++
	if n := m.spec.DropFenceEveryN; n > 0 && m.fences%n == 0 {
		return
	}
	m.inner.ObserveSFence()
}

// Options configures a campaign.
type Options struct {
	// Seed drives the workload op streams, the sampling of crash points
	// and the seeded policies. Same seed, same campaign, bit for bit.
	Seed uint64 `json:"seed"`
	// Ops is the number of workload transactions per case.
	Ops int `json:"ops"`
	// MaxPoints caps the crash points tried per target; spans at or under
	// the cap are swept exhaustively, larger ones seed-sampled. <= 0
	// means always exhaustive.
	MaxPoints int `json:"max_points"`
	// Policies are the adversaries applied at each crash point.
	Policies []nvmsim.Kind `json:"-"`
	// MaxFailures stops a target's campaign after this many failures
	// (each failure costs a minimization pass). <= 0 means 1.
	MaxFailures int `json:"max_failures"`
	// Minimize shrinks each failure to a minimal dropped-line set.
	Minimize bool `json:"minimize"`
	// Mutate, when enabled, weakens durability during the workload (see
	// MutationSpec). The dry run uses the same mutation so event numbering
	// stays aligned.
	Mutate MutationSpec `json:"mutate,omitempty"`
	// Obs, when non-nil, receives campaign progress counters under
	// "crashtest." (cases_explored, failures, points_selected, ...). It has
	// no effect on the sweep itself.
	Obs *obs.Registry `json:"-"`
}

// DefaultOptions returns the CI smoke-campaign configuration.
func DefaultOptions() Options {
	return Options{
		Seed:        1,
		Ops:         12,
		MaxPoints:   48,
		Policies:    []nvmsim.Kind{nvmsim.DropAll, nvmsim.Torn},
		MaxFailures: 1,
		Minimize:    true,
	}
}

// Failure is one reproducible crash-consistency violation.
type Failure struct {
	Target string `json:"target"`
	// Event is the crash point: the persistence-domain event index the
	// crash preempted.
	Event  uint64 `json:"event"`
	Policy string `json:"policy"`
	Seed   uint64 `json:"policy_seed"`
	// Kept is the exact survivor set the adversary granted
	// (nvmsim.Report.KeptString form) — with Event, the deterministic
	// replay token.
	Kept    string `json:"kept"`
	Dropped int    `json:"dropped_lines"`
	Err     string `json:"error"`
	// MinLost, when minimization ran, is the minimal set of lost or torn
	// lines ("pool:off/mask") that still reproduces the failure.
	MinLost []string `json:"min_lost,omitempty"`
}

// ReplayToken renders the failure's deterministic reproduction handle.
func (f Failure) ReplayToken() string {
	return fmt.Sprintf("%s@%d#%s", f.Target, f.Event, f.Kept)
}

// ParseReplayToken splits a ReplayToken into its target, event and survivor
// set.
func ParseReplayToken(tok string) (target string, event uint64, keep map[nvmsim.Line]byte, err error) {
	target, rest, ok1 := strings.Cut(tok, "@")
	eventS, kept, ok2 := strings.Cut(rest, "#")
	if !ok1 || !ok2 || target == "" {
		return "", 0, nil, fmt.Errorf("crashtest: bad replay token %q", tok)
	}
	event, err = strconv.ParseUint(eventS, 10, 64)
	if err != nil {
		return "", 0, nil, fmt.Errorf("crashtest: bad event in replay token %q", tok)
	}
	keep, err = nvmsim.ParseKept(kept)
	if err != nil {
		return "", 0, nil, err
	}
	return target, event, keep, nil
}

// Summary is one target's campaign result.
type Summary struct {
	Target     string    `json:"target"`
	Span       uint64    `json:"event_span"`
	Points     int       `json:"points"`
	Exhaustive bool      `json:"exhaustive"`
	Cases      int       `json:"cases"`
	Failures   []Failure `json:"failures"`
}

// buildWorld constructs a fresh deterministic world for the target: address
// space, durable store, discard-mode heap, built target state, synced so
// the setup is the durable floor. The mutation, if any, is installed after
// the sync so only the workload runs weakened.
func buildWorld(tg Target, opt Options) (*vm.AddressSpace, *pmem.Store, *pmem.Heap, Instance, error) {
	as := vm.NewAddressSpace(int64(opt.Seed))
	store := pmem.NewStore()
	h, err := pmem.NewHeapDiscard(as, store)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	inst, err := tg.Build(h)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("crashtest: build %s: %w", tg.Name(), err)
	}
	if err := h.SyncAll(); err != nil {
		return nil, nil, nil, nil, err
	}
	if opt.Mutate.enabled() {
		h.Emit.SetPersistObserver(&mutObserver{spec: opt.Mutate, inner: h})
	}
	return as, store, h, inst, nil
}

// catchCrash runs fn, converting the CrashSignal panic of an armed crash
// into crashed=true. Reaching the end of fn without crashing (the arm
// point lies past the run's events) is legal.
func catchCrash(fn func() error) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := nvmsim.AsCrashSignal(r); !ok {
				panic(r)
			}
			crashed, err = true, nil
		}
	}()
	return false, fn()
}

// runCase builds a world, crashes it just before the given event under pol,
// recovers on a fresh heap and verifies. A non-nil *Failure is a
// crash-consistency violation; a non-nil error is an engine/world problem.
// The crash report names the lines the adversary dropped or tore, which
// minimization heals one at a time.
func runCase(tg Target, opt Options, event uint64, pol nvmsim.Policy) (*Failure, nvmsim.Report, error) {
	as, store, h, inst, err := buildWorld(tg, opt)
	if err != nil {
		return nil, nvmsim.Report{}, err
	}
	h.NV.Arm(event)
	_, err = catchCrash(func() error { return inst.Run(opt.Ops) })
	h.NV.Disarm()
	if err != nil {
		return nil, nvmsim.Report{}, fmt.Errorf("crashtest: %s workload: %w", tg.Name(), err)
	}
	rep, err := h.Crash(pol)
	if err != nil {
		return nil, rep, err
	}

	h2, err := pmem.NewHeapDiscard(as, store)
	if err != nil {
		return nil, rep, err
	}
	verr := func() error {
		inst2, err := tg.Attach(h2)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		return inst2.Check(opt.Ops)
	}()
	if verr == nil {
		return nil, rep, nil
	}
	return &Failure{
		Target:  tg.Name(),
		Event:   event,
		Policy:  pol.Kind.String(),
		Seed:    pol.Seed,
		Kept:    rep.KeptString(),
		Dropped: len(rep.Dropped),
		Err:     verr.Error(),
	}, rep, nil
}

// minimizeLimit bounds the resimulations one failure's minimization may
// cost.
const minimizeLimit = 96

// minimize greedily heals the damage one line at a time — restoring dropped
// lines and completing partially-kept (torn) ones. A line whose healing
// makes verification pass is essential to the failure and stays damaged.
// The result is 1-minimal: healing any single reported line no longer
// reproduces the failure. Entries are "pool:off/mask" with the mask the
// adversary left (00 = fully lost).
func minimize(tg Target, opt Options, event uint64, rep nvmsim.Report) []string {
	type candidate struct {
		ln   nvmsim.Line
		mask byte
	}
	var cands []candidate
	for _, ln := range rep.Dropped {
		cands = append(cands, candidate{ln: ln, mask: 0})
	}
	for _, k := range rep.Kept {
		if k.Mask != 0xFF {
			cands = append(cands, candidate{ln: k.Line, mask: k.Mask})
		}
	}
	if len(cands) == 0 || len(cands) > minimizeLimit {
		return nil
	}
	keep := rep.Explicit().Keep
	var essential []string
	for _, c := range cands {
		keep[c.ln] = 0xFF
		fail, _, err := runCase(tg, opt, event, nvmsim.ExplicitPolicy(keep))
		if err != nil || fail == nil {
			// Healing this line repaired recovery: its damage is part of
			// the counterexample.
			if c.mask == 0 {
				delete(keep, c.ln)
			} else {
				keep[c.ln] = c.mask
			}
			essential = append(essential, fmt.Sprintf("%s/%02x", c.ln, c.mask))
		}
	}
	return essential
}

// RunTarget sweeps one target: a dry run sizes the workload's event span,
// then every selected crash point is tried under every policy.
func RunTarget(tg Target, opt Options) (Summary, error) {
	if opt.Ops <= 0 {
		opt.Ops = DefaultOptions().Ops
	}
	if len(opt.Policies) == 0 {
		opt.Policies = DefaultOptions().Policies
	}
	if opt.MaxFailures <= 0 {
		opt.MaxFailures = 1
	}

	// Dry run: the workload must complete cleanly and produce events.
	_, _, h, inst, err := buildWorld(tg, opt)
	if err != nil {
		return Summary{}, err
	}
	base := h.NV.Events()
	if err := inst.Run(opt.Ops); err != nil {
		return Summary{}, fmt.Errorf("crashtest: %s dry run: %w", tg.Name(), err)
	}
	span := h.NV.Events() - base
	if span == 0 {
		return Summary{}, fmt.Errorf("crashtest: %s workload produced no persistence events", tg.Name())
	}

	points, exhaustive := pickPoints(base, span, opt)
	sum := Summary{Target: tg.Name(), Span: span, Points: len(points), Exhaustive: exhaustive}
	opt.Obs.Counter("crashtest.events_spanned").Add(span)
	opt.Obs.Counter("crashtest.points_selected").Add(uint64(len(points)))
	opt.Obs.Counter("crashtest.cases_planned").Add(uint64(len(points) * len(opt.Policies)))
	defer opt.Obs.Counter("crashtest.targets_completed").Inc()
	for _, e := range points {
		for _, kind := range opt.Policies {
			pol := nvmsim.Policy{Kind: kind, Seed: opt.Seed ^ e}
			fail, rep, err := runCase(tg, opt, e, pol)
			if err != nil {
				return sum, err
			}
			sum.Cases++
			opt.Obs.Counter("crashtest.cases_explored").Inc()
			if fail == nil {
				continue
			}
			opt.Obs.Counter("crashtest.failures").Inc()
			if opt.Minimize {
				fail.MinLost = minimize(tg, opt, e, rep)
			}
			sum.Failures = append(sum.Failures, *fail)
			if len(sum.Failures) >= opt.MaxFailures {
				return sum, nil
			}
		}
	}
	return sum, nil
}

// pickPoints selects the crash points for a span starting at base:
// exhaustive when it fits the budget, otherwise seed-sampled without
// replacement.
func pickPoints(base, span uint64, opt Options) ([]uint64, bool) {
	if opt.MaxPoints <= 0 || span <= uint64(opt.MaxPoints) {
		out := make([]uint64, span)
		for i := range out {
			out[i] = base + uint64(i)
		}
		return out, true
	}
	pick := make(map[uint64]bool, opt.MaxPoints)
	s := opt.Seed ^ 0xc4a5e
	for len(pick) < opt.MaxPoints {
		s = mix64(s)
		pick[base+s%span] = true
	}
	out := make([]uint64, 0, len(pick))
	for e := range pick {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, false
}

// Replay reproduces one recorded case exactly: crash at the event with the
// recorded survivor set, recover, verify. It returns the verification
// error, nil if the case now passes. Options must match the recording
// campaign's (seed, ops, mutation) for the replay to be faithful.
func Replay(tg Target, opt Options, event uint64, keep map[nvmsim.Line]byte) error {
	fail, _, err := runCase(tg, opt, event, nvmsim.ExplicitPolicy(keep))
	if err != nil {
		return err
	}
	if fail == nil {
		return nil
	}
	return fmt.Errorf("%s", fail.Err)
}
