package main

import (
	"fmt"
	"runtime"
	"time"

	"potgo/internal/harness"
	"potgo/internal/obs"
	"potgo/internal/polb"
	"potgo/internal/workloads"
)

// simKey names one pinned simulation: the simulation seed and the spec
// (a simSpecNames entry).
type simKey struct {
	seed int64
	spec string
}

// simPin is a simulation's exact, deterministic outcome.
type simPin struct {
	insns, cycles, checksum, polbMisses, potWalks uint64
}

// simSeeds is how many simulation seeds are pinned; --seed picks one.
const simSeeds = 4

func simSeed(seed uint64) int64 { return 1 + int64(seed%simSeeds) }

// simSpecs are Figure 9(b)'s LL, BST and B+T rows on the RANDOM pattern:
// BASE and OPT with the pipelined POLB, on the out-of-order core, at the
// paper's op counts unless ops overrides them. Order matches simSpecNames.
func simSpecs(seed int64, ops int) []harness.RunSpec {
	var out []harness.RunSpec
	for _, b := range []string{"LL", "BST", "B+T"} {
		base := harness.RunSpec{Bench: b, Pattern: workloads.Random, Tx: true, Core: harness.OutOfOrder, Ops: ops, Seed: seed}
		opt := base
		opt.Opt, opt.Design = true, polb.Pipelined
		out = append(out, base, opt)
	}
	return out
}

// specOps is the number of workload operations a spec simulates.
func specOps(s harness.RunSpec) int {
	if s.Ops > 0 {
		return s.Ops
	}
	w, _ := workloads.ByAbbr(s.Bench)
	return w.DefaultOps
}

// simRun is one simulated spec with its wall time.
type simRun struct {
	r harness.RunResult
	d time.Duration
}

// checkSim compares a set of timed runs with the functional reference and
// the pins, and BASE with OPT. It returns checks made, failures and the
// first failure.
func checkSim(seed int64, runs, ref []simRun, pins map[simKey]simPin) (attempted, failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for i, run := range runs {
		name := simSpecNames[i]
		r := run.r
		attempted++
		p, ok := pins[simKey{seed, name}]
		got := simPin{r.CPU.Instructions, r.CPU.Cycles, r.Checksum, r.CPU.POLB.Misses, r.CPU.Translation.POTWalks}
		switch {
		case !ok:
			fail(fmt.Errorf("sim %s seed %d: no pinned result", name, seed))
		case got != p:
			fail(fmt.Errorf("sim %s seed %d: got %+v, pinned %+v", name, seed, got, p))
		case ref != nil && (r.CPU.Instructions != ref[i].r.CPU.Instructions || r.Checksum != ref[i].r.Checksum):
			fail(fmt.Errorf("sim %s seed %d: timed run disagrees with the functional run", name, seed))
		case i%2 == 1 && r.Checksum != runs[i-1].r.Checksum:
			fail(fmt.Errorf("sim %s seed %d: OPT checksum differs from BASE", name, seed))
		}
	}
	return attempted, failed, first
}

// checkFunctional checks the functional reference against the pins.
func checkFunctional(seed int64, ref []simRun, pins map[simKey]simPin) (attempted, failed int, first error) {
	for i, run := range ref {
		attempted++
		p := pins[simKey{seed, simSpecNames[i]}]
		if run.r.CPU.Instructions != p.insns || run.r.Checksum != p.checksum {
			failed++
			if first == nil {
				first = fmt.Errorf("sim %s seed %d: functional run gives %d insns checksum %#x, pinned %d %#x",
					simSpecNames[i], seed, run.r.CPU.Instructions, run.r.Checksum, p.insns, p.checksum)
			}
		}
	}
	return attempted, failed, first
}

// simPass runs every spec once, functionally or timed. reg, when set,
// receives the timed runs' statistics; tr, when set, a span per run.
func simPass(specs []harness.RunSpec, functional bool, reg *obs.Registry, tr *tracer) ([]simRun, error) {
	out := make([]simRun, len(specs))
	for i, s := range specs {
		t0 := time.Now()
		var r harness.RunResult
		var err error
		name := "harness.Run"
		switch {
		case functional:
			name = "harness.RunFunctional"
			r, err = harness.RunFunctional(s)
		case reg != nil:
			r, err = harness.RunObserved(s, harness.RunObs{Metrics: reg})
		default:
			r, err = harness.Run(s)
		}
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		out[i] = simRun{r, t1.Sub(t0)}
		if tr != nil {
			tr.simSpan(name+" "+simSpecNames[i], t0, t1)
		}
	}
	return out, nil
}

// simSetSeconds is about how long one set of the six specs simulates on
// the machine the benchmark was defined on; a run simulates a whole number
// of sets, at least one, so every run does the same work.
const simSetSeconds = 15

func simSets(seconds float64) int { return max(1, int(seconds/simSetSeconds)) }

func runSim(cfg config, tr *tracer, res *result) error {
	seed := simSeed(cfg.seed)
	specs := simSpecs(seed, cfg.simOps)
	pins := cfg.simPins
	if pins == nil {
		pins = defaultSimPins
	}
	// Set-up builds the functional reference: every spec's workload run
	// without the timing model.
	var setupStart time.Time
	ref, setupS, err := setup(cfg, func() ([]simRun, error) {
		setupStart = time.Now()
		return simPass(specs, true, nil, tr)
	}, func([]simRun) {})
	if err != nil {
		return err
	}
	setupEnd := time.Now()
	res.count(checkFunctional(seed, ref, pins))

	stop := cfg.profile()
	if tr == nil {
		var runs []simRun
		for i := 0; i < simSets(cfg.seconds); i++ {
			set, err := simPass(specs, false, nil, nil)
			if err != nil {
				return err
			}
			res.count(checkSim(seed, set, ref, pins))
			runs = append(runs, set...)
		}
		stop()
		var ops float64
		var wall time.Duration
		for i, r := range runs {
			ops += float64(specOps(specs[i%len(specs)]))
			wall += r.d
		}
		res.set("ops_per_s", ratio(ops, wall.Seconds()))
		res.set("setup_s", setupS)
		fmt.Printf("phase sim: %d simulations, %.0f ops in %.2fs\n", len(runs), ops, wall.Seconds())
	} else {
		tracedSim(seed, specs, ref, pins, tr, res)
		res.set("bench.span_coverage", ratio(tr.rootSum.Seconds(), setupEnd.Sub(setupStart).Seconds()+tr.simWall.Seconds()))
		stop()
	}
	res.set("live_heap_mb", liveHeapMB())
	return nil
}

// tracedSim times a traced pass (spans, metrics registry) against an
// untraced one and splits each spec's time into produce (the functional
// run: workloads, pds, pmem, emit) and model (the rest: cpu, mem, cache,
// vm, polb, pot); producer and consumer strictly alternate, so the split is
// additive.
func tracedSim(seed int64, specs []harness.RunSpec, ref []simRun, pins map[simKey]simPin, tr *tracer, res *result) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	traced, err := simPass(specs, false, obs.NewRegistry(), tr)
	tr.simWall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		res.count(1, 1, err)
		return
	}
	res.count(checkSim(seed, traced, ref, pins))
	t0 = time.Now()
	plain, err := simPass(specs, false, nil, nil)
	plainWall := time.Since(t0)
	if err != nil {
		res.count(1, 1, err)
		return
	}
	res.count(checkSim(seed, plain, ref, pins))

	var insns, cycles, polbMiss, walks uint64
	var produce, model, run time.Duration
	for i, r := range traced {
		n := r.r.CPU.Instructions
		insns += n
		cycles += r.r.CPU.Cycles
		polbMiss += r.r.CPU.POLB.Misses
		walks += r.r.CPU.Translation.POTWalks
		produce += ref[i].d
		model += r.d - ref[i].d
		run += r.d
		res.set("sim."+simSpecNames[i]+".produce_ns_per_insn", ratio(float64(ref[i].d.Nanoseconds()), float64(n)))
		res.set("sim."+simSpecNames[i]+".model_ns_per_insn", ratio(float64((r.d-ref[i].d).Nanoseconds()), float64(n)))
	}
	res.set("sim.produce_ns_per_insn", ratio(float64(produce.Nanoseconds()), float64(insns)))
	res.set("sim.model_ns_per_insn", ratio(float64(model.Nanoseconds()), float64(insns)))
	res.set("sim.allocs_per_insn", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(insns)))
	res.set("sim.insns", float64(insns))
	res.set("sim.cycles", float64(cycles))
	res.set("sim.polb_misses", float64(polbMiss))
	res.set("sim.pot_walks", float64(walks))
	tracedMIPS := ratio(float64(insns), run.Seconds()) / 1e6
	plainMIPS := ratio(float64(insns), plainWall.Seconds()) / 1e6
	res.set("sim_mips", plainMIPS)
	res.set("bench.trace_overhead_frac", 1-ratio(tracedMIPS, plainMIPS))
	fmt.Printf("phase sim: %d insns, traced %.2f MIPS, untraced %.2f MIPS\n", insns, tracedMIPS, plainMIPS)
}

// defaultSimPins are the exact outcomes of every spec at simulation seeds
// 1..simSeeds. A change that only speeds the simulator up leaves them
// unchanged; a change to the modelled machine must re-pin them.
var defaultSimPins = map[simKey]simPin{
	{1, "ll_base"}:  {18962248, 22428131, 0xa19e469d4f019c74, 0, 0},
	{1, "ll_opt"}:   {2962883, 13272632, 0xa19e469d4f019c74, 32, 32},
	{1, "bst_base"}: {24101834, 23707758, 0x695f9e8480c0f96d, 0, 0},
	{1, "bst_opt"}:  {7202597, 13010066, 0x695f9e8480c0f96d, 32, 32},
	{1, "bpt_base"}: {12060230, 9732122, 0x2f93edfe78f7216d, 0, 0},
	{1, "bpt_opt"}:  {5513669, 5632940, 0x2f93edfe78f7216d, 32, 32},
	{2, "ll_base"}:  {18952484, 22398729, 0x3bf37ca218ac259f, 0, 0},
	{2, "ll_opt"}:   {2950110, 13280342, 0x3bf37ca218ac259f, 32, 32},
	{2, "bst_base"}: {22782693, 22191828, 0xa1aee793dead57e6, 0, 0},
	{2, "bst_opt"}:  {7127344, 12148737, 0xa1aee793dead57e6, 32, 32},
	{2, "bpt_base"}: {11774776, 9545709, 0x75a37d15334334e6, 0, 0},
	{2, "bpt_opt"}:  {5459892, 5570344, 0x75a37d15334334e6, 32, 32},
	{3, "ll_base"}:  {18492414, 22455297, 0xb1a67ab53ce2862d, 0, 0},
	{3, "ll_opt"}:   {2909096, 13586142, 0xb1a67ab53ce2862d, 32, 32},
	{3, "bst_base"}: {23771044, 22843119, 0xc31bfeec792a61e5, 0, 0},
	{3, "bst_opt"}:  {7173335, 12336027, 0xc31bfeec792a61e5, 32, 32},
	{3, "bpt_base"}: {11833311, 9608550, 0xd36bd2550a7382c5, 0, 0},
	{3, "bpt_opt"}:  {5502584, 5605126, 0xd36bd2550a7382c5, 32, 32},
	{4, "ll_base"}:  {19370429, 22318788, 0x9fbe26d0ca33c060, 0, 0},
	{4, "ll_opt"}:   {3035291, 12931239, 0x9fbe26d0ca33c060, 32, 32},
	{4, "bst_base"}: {24326239, 23697746, 0xabae5978c2fa8fc9, 0, 0},
	{4, "bst_opt"}:  {7220752, 12866005, 0xabae5978c2fa8fc9, 32, 32},
	{4, "bpt_base"}: {11932743, 9666866, 0x4963972edfa07a69, 0, 0},
	{4, "bpt_opt"}:  {5497769, 5622036, 0x4963972edfa07a69, 32, 32},
}
