// Command potcrash runs adversarial crash-injection campaigns against the
// persistent heap and its client structures (internal/crashtest). Each
// campaign sweeps crash points over a target's transactional workload,
// crashes the volatile persistence domain under a line-loss adversary,
// recovers from the surviving durable bytes and verifies invariants against
// a deterministic model.
//
// Usage:
//
//	potcrash [flags]                      run a campaign
//	potcrash -replay 'rbt@267#none' ...   reproduce one recorded case
//
// The exit status is 0 when every case passes and 1 when any fails;
// -expect-failure inverts that, for CI mutation checks that must prove the
// engine catches an injected missing-flush bug.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"potgo/internal/crashtest"
	"potgo/internal/harness"
	"potgo/internal/nvmsim"
	"potgo/internal/obs"
	"potgo/internal/pmem"
)

// config is potcrash's parsed command line. set names the flags given on
// it: a campaign starts from its own defaults and overrides only those.
type config struct {
	targets, corruptMode                        string
	jsonOut, benchPath, replayTok, metricsOut   string
	listen                                      string
	seed                                        uint64
	ops, points, maxFailures, mutCLWB, mutFence int
	nodes, workers, shards, corruptK            int
	noMinimize, expectFail, ftOverhead          bool
	mutSplit, mutStale, scrub, mutNoParity      bool
	progress                                    time.Duration
	policies                                    []nvmsim.Kind
	mode                                        *campaignMode // the sampled-point campaign selected, if any
	set                                         map[string]bool
}

// campaignMode is one sampled-point campaign: the flag that selects it,
// its defaults, its run function and its summary line.
type campaignMode struct {
	flag, help string
	defaults   func() crashtest.CampaignOptions
	run        func(crashtest.CampaignOptions) (crashtest.CampaignSummary, error)
	report     func(crashtest.CampaignOptions, crashtest.CampaignSummary) string
}

// campaignModes lists the sampled-point campaigns in precedence order.
var campaignModes = []campaignMode{
	{"cluster", "run the cluster campaign: kill a whole replicated potserve node mid-replication, fail over, verify acked-prefix linearizability (-nodes/-workers/-shards; -ops is per worker, -points kill points)",
		crashtest.DefaultClusterOptions, crashtest.RunCluster,
		func(o crashtest.CampaignOptions, s crashtest.CampaignSummary) string {
			return fmt.Sprintf("%d nodes, %d workers, %d points (%d node kills fired, %d drained), %d acked writes, %d events spanned",
				o.Nodes, o.Workers, s.Points, s.Fired, s.Completed, s.AckedOps, s.Span)
		}},
	{"mvcc", "run the MVCC campaign: crash a journaled snapshot-read workload with concurrent epoch reclamation (-workers/-shards; -ops is per worker, -points crash points)",
		crashtest.DefaultConcurrentOptions, crashtest.RunMVCC,
		func(o crashtest.CampaignOptions, s crashtest.CampaignSummary) string {
			return fmt.Sprintf("%d workers on %d shards, %d points (%d fired, %d drained), %d acked ops, %d snapshot reads, %d reclaim sweeps, %d events spanned",
				o.Workers, o.Shards, s.Points, s.Fired, s.Completed, s.AckedOps, s.SnapshotReads, s.Reclaims, s.Span)
		}},
	{"concurrent", "run the concurrent campaign: crash a multi-worker workload on the sharded heap (-workers/-shards; -ops is per worker, -points crash points)",
		crashtest.DefaultConcurrentOptions, crashtest.RunConcurrent,
		func(o crashtest.CampaignOptions, s crashtest.CampaignSummary) string {
			return fmt.Sprintf("%d workers on %d shards, %d points (%d fired, %d drained), %d acked ops, %d events spanned",
				o.Workers, o.Shards, s.Points, s.Fired, s.Completed, s.AckedOps, s.Span)
		}},
}

// parseArgs parses the command line; a bad one exits with status 2.
func parseArgs(args []string) *config {
	tg, cc, cl, rp := crashtest.DefaultOptions(), crashtest.DefaultConcurrentOptions(),
		crashtest.DefaultClusterOptions(), crashtest.DefaultRepairOptions()
	c := &config{set: make(map[string]bool)}
	fs := flag.NewFlagSet("potcrash", flag.ExitOnError)
	fs.StringVar(&c.targets, "targets", "all", "comma-separated targets, or 'all' (list,bst,rbt,btree,bplus,alloc,tpcc)")
	fs.Uint64Var(&c.seed, "seed", tg.Seed, "campaign seed: workload streams, point sampling, policy seeds")
	fs.IntVar(&c.ops, "ops", 0, fmt.Sprintf("workload size: transactions per case in the target sweep (default %d), ops per worker in the concurrent/mvcc (%d) and cluster (%d) campaigns, workload ops in the repair campaign (%d)",
		tg.Ops, cc.OpsPerWorker, cl.OpsPerWorker, rp.Ops))
	fs.IntVar(&c.points, "points", 0, fmt.Sprintf("crash points: max per target in the target sweep (default %d, <=0: exhaustive), sampled points in the concurrent/mvcc (%d) and cluster (%d) campaigns, rounds under -scrub (%d)",
		tg.MaxPoints, cc.Points, cl.Points, rp.Rounds))
	policies := fs.String("policies", "", fmt.Sprintf("comma-separated adversaries (drop-all,keep-random,torn); default %s in the target sweep, %s in the other campaigns",
		strings.Join(policyNames(tg.Policies), ","), strings.Join(policyNames(cc.Policies), ",")))
	fs.IntVar(&c.maxFailures, "max-failures", tg.MaxFailures, "stop a target's campaign after this many failures")
	fs.BoolVar(&c.noMinimize, "no-minimize", false, "skip counterexample minimization on failures")
	fs.IntVar(&c.mutCLWB, "mutate-drop-clwb", 0, "bug injection: drop every Nth cache-line write-back (1 = all)")
	fs.IntVar(&c.mutFence, "mutate-drop-fence", 0, "bug injection: drop every Nth store fence (1 = all)")
	fs.BoolVar(&c.expectFail, "expect-failure", false, "invert the exit status: succeed only if the campaign finds a failure")
	fs.StringVar(&c.jsonOut, "json", "", "write the campaign summary as JSON to this file ('-' for stdout)")
	fs.StringVar(&c.benchPath, "bench", "", "append a trajectory record to this file (e.g. BENCH_crash.json)")
	fs.StringVar(&c.replayTok, "replay", "", "reproduce one case from its replay token instead of sweeping")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file at exit")
	fs.StringVar(&c.listen, "listen", "", "serve live metrics on this address at /debug/vars (expvar JSON)")
	fs.DurationVar(&c.progress, "progress", 0, "periodic cases/sec + ETA report interval on stderr (0 disables)")
	selected := make([]bool, len(campaignModes))
	for i, m := range campaignModes {
		fs.BoolVar(&selected[i], m.flag, false, m.help)
	}
	fs.IntVar(&c.nodes, "nodes", 0, fmt.Sprintf("cluster campaign: member count, >= 3 (default %d)", cl.Nodes))
	fs.BoolVar(&c.mutSplit, "mutate-split-brain", false, "bug injection: disable the stale-epoch fence and stage two primaries (cluster campaign must fail; pair with -expect-failure)")
	fs.BoolVar(&c.mutStale, "mutate-stale-read", false, "bug injection: freeze snapshot pins at a stale epoch (MVCC campaign must fail; pair with -expect-failure)")
	fs.IntVar(&c.workers, "workers", 0, fmt.Sprintf("worker goroutines in the concurrent/mvcc (default %d) and cluster (%d) campaigns", cc.Workers, cl.Workers))
	fs.IntVar(&c.shards, "shards", 0, fmt.Sprintf("heap lock shards in the concurrent/mvcc (default %d), cluster (%d, per member) and repair (%d) campaigns", cc.Shards, cl.Shards, rp.Shards))
	fs.BoolVar(&c.ftOverhead, "ft-overhead", false, "measure the FT checksum+parity tax on the Table 5 micros and durable TPC-C (plain vs fault-tolerant pools) and append a record to -bench")
	fs.IntVar(&c.corruptK, "corrupt-k", 0, "repair campaign: single-bit media faults per round (>0 selects the corrupt-scrub-verify campaign)")
	fs.StringVar(&c.corruptMode, "corrupt-mode", "detect", "repair campaign fault flavor: detect (payload bits) or silent (checksum/parity bits)")
	fs.BoolVar(&c.scrub, "scrub", false, "repair campaign: arm a power failure inside each round's scrub pass (-points rounds)")
	fs.BoolVar(&c.mutNoParity, "mutate-no-parity", false, "bug injection: let the parity column go stale under part of the workload (repair campaign must fail)")
	fs.Parse(args)
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })

	for i := range campaignModes {
		if selected[i] {
			c.mode = &campaignModes[i]
			break
		}
	}
	for _, s := range strings.Split(*policies, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		k, err := nvmsim.ParseKind(s)
		if err != nil {
			fatal(err)
		}
		c.policies = append(c.policies, k)
	}
	if c.set["policies"] && len(c.policies) == 0 {
		fatal(fmt.Errorf("potcrash: no policies selected"))
	}
	return c
}

func policyNames(kinds []nvmsim.Kind) []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

// override sets *dst to v when the named flag was given.
func override[T any](c *config, name string, dst *T, v T) {
	if c.set[name] {
		*dst = v
	}
}

// targetOptions builds the target sweep's (and replay's) options.
func (c *config) targetOptions() crashtest.Options {
	opt := crashtest.DefaultOptions()
	override(c, "seed", &opt.Seed, c.seed)
	override(c, "ops", &opt.Ops, c.ops)
	override(c, "points", &opt.MaxPoints, c.points)
	override(c, "policies", &opt.Policies, c.policies)
	override(c, "max-failures", &opt.MaxFailures, c.maxFailures)
	opt.Minimize = !c.noMinimize
	opt.Mutate = crashtest.MutationSpec{DropCLWBEveryN: c.mutCLWB, DropFenceEveryN: c.mutFence}
	return opt
}

// campaignOptions builds a sampled-point campaign's options from its
// defaults.
func (c *config) campaignOptions(def crashtest.CampaignOptions) crashtest.CampaignOptions {
	opt := def
	override(c, "seed", &opt.Seed, c.seed)
	override(c, "nodes", &opt.Nodes, c.nodes)
	override(c, "workers", &opt.Workers, c.workers)
	override(c, "shards", &opt.Shards, c.shards)
	override(c, "ops", &opt.OpsPerWorker, c.ops)
	override(c, "points", &opt.Points, c.points)
	override(c, "policies", &opt.Policies, c.policies)
	opt.MutateStaleRead = c.mutStale
	opt.MutateSplitBrain = c.mutSplit
	return opt
}

// repairOptions builds the repair campaign's options.
func (c *config) repairOptions() crashtest.RepairOptions {
	opt := crashtest.DefaultRepairOptions()
	override(c, "seed", &opt.Seed, c.seed)
	override(c, "shards", &opt.Shards, c.shards)
	override(c, "ops", &opt.Ops, c.ops)
	override(c, "policies", &opt.Policies, c.policies)
	if c.corruptK > 0 {
		opt.K = c.corruptK
	} else if c.mutNoParity {
		opt.K = 6 // the mutation check wants enough faults to hit a stale group
	}
	m, err := pmem.ParseCorruptMode(c.corruptMode)
	if err != nil {
		fatal(err)
	}
	opt.Mode = m
	opt.NoParity = c.mutNoParity
	if c.scrub {
		opt.CrashMidScrub = true
		override(c, "points", &opt.Rounds, c.points)
	}
	return opt
}

func main() {
	c := parseArgs(os.Args[1:])
	reg := obs.NewRegistry()
	if c.listen != "" {
		addr, _, err := reg.Serve(c.listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "potcrash: metrics at http://%s/debug/vars\n", addr)
	}
	failed := c.run(reg)
	if c.metricsOut != "" {
		if err := reg.WriteFile(c.metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", c.metricsOut)
	}
	os.Exit(status(failed, c.expectFail))
}

// run executes the selected mode and reports whether it found a failure.
func (c *config) run(reg *obs.Registry) bool {
	switch {
	case c.replayTok != "":
		return replay(c.replayTok, c.targetOptions())
	case c.mode != nil:
		opt := c.campaignOptions(c.mode.defaults())
		opt.Obs = reg
		start := time.Now()
		sum, err := c.mode.run(opt)
		if err != nil {
			fmt.Printf("%s campaign: FAIL after %d/%d points: %v\n", c.mode.flag, sum.Fired+sum.Completed, sum.Points, err)
			return true
		}
		fmt.Printf("%s campaign: %s (%.1fs)\n", c.mode.flag, c.mode.report(opt, sum), time.Since(start).Seconds())
		return false
	case c.ftOverhead:
		runFTOverhead(c.seed, c.ops, c.benchPath)
		return false
	case c.corruptK > 0 || c.mutNoParity || c.scrub:
		opt := c.repairOptions()
		opt.Obs = reg
		return runRepair(opt, c.corruptMode, c.benchPath)
	}
	opt := c.targetOptions()
	opt.Obs = reg
	return c.sweep(opt, reg)
}

// sweep runs the target campaigns and reports whether any case failed.
func (c *config) sweep(opt crashtest.Options, reg *obs.Registry) bool {
	targets, err := selectTargets(c.targets, opt.Seed)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	prog := obs.NewReporter(os.Stderr, "potcrash", "case", c.progress,
		func() (done, total float64) {
			// cases_planned grows as each target sizes its sweep, so the
			// ETA refines target by target.
			return float64(reg.Counter("crashtest.cases_explored").Value()),
				float64(reg.Counter("crashtest.cases_planned").Value())
		},
		func() string {
			return fmt.Sprintf("%d/%d targets", reg.Counter("crashtest.targets_completed").Value(), len(targets))
		})
	var (
		summaries []crashtest.Summary
		names     []string
		failures  int
	)
	for _, tg := range targets {
		sum, err := crashtest.RunTarget(tg, opt)
		if err != nil {
			fatal(err)
		}
		summaries = append(summaries, sum)
		names = append(names, sum.Target)
		failures += len(sum.Failures)
		printSummary(sum)
	}
	prog.Stop()
	wall := time.Since(start).Seconds()

	var span uint64
	var pointsTotal, cases int
	for _, s := range summaries {
		span += s.Span
		pointsTotal += s.Points
		cases += s.Cases
	}
	fmt.Printf("campaign: %d targets, %d events spanned, %d points, %d cases, %d failures (%.1fs)\n",
		len(summaries), span, pointsTotal, cases, failures, wall)

	polNames := policyNames(opt.Policies)
	if c.jsonOut != "" {
		if err := writeJSON(c.jsonOut, opt, polNames, summaries, wall); err != nil {
			fatal(err)
		}
	}
	if c.benchPath != "" {
		sort.Strings(names)
		appendRecord(c.benchPath, harness.CrashRecord{
			Provenance:  harness.NewProvenance(),
			Seed:        opt.Seed,
			Ops:         opt.Ops,
			MaxPoints:   opt.MaxPoints,
			Policies:    polNames,
			Targets:     names,
			EventSpan:   span,
			Points:      pointsTotal,
			Cases:       cases,
			Failures:    failures,
			WallSeconds: wall,
		})
	}
	return failures > 0
}

// appendRecord appends rec to a trajectory file; a duplicate of a clean
// tree's record is reported and skipped.
func appendRecord[T harness.Record[T]](path string, rec T) {
	switch err := harness.AppendRecord(path, rec); {
	case err == nil:
		fmt.Printf("appended trajectory record to %s\n", path)
	case errors.Is(err, harness.ErrDuplicateRecord):
		fmt.Fprintf(os.Stderr, "potcrash: %v (not recording)\n", err)
	default:
		fatal(err)
	}
}

// runRepair drives the media-fault repair campaign: inject -corrupt-k
// single-bit faults per round, scrub, and verify byte-exact recovery
// (crashing mid-scrub when -scrub is set). It reports whether the
// campaign failed.
func runRepair(opt crashtest.RepairOptions, mode, benchPath string) bool {
	start := time.Now()
	sum, err := crashtest.RunRepair(opt)
	wall := time.Since(start).Seconds()
	if err != nil {
		fmt.Printf("repair campaign: FAIL: %v (summary %+v)\n", err, sum)
		return true
	}
	fmt.Printf("repair campaign: %d rounds x %d faults (%s), %d repaired + %d parity, %d crashes fired, scrub span %d events (%.1fs)\n",
		sum.Rounds, opt.K, mode, sum.Repaired, sum.ParityRepaired, sum.Fired, sum.ScrubSpan, wall)

	if benchPath != "" {
		plainNs, verifyNs, err := harness.MeasureVerifyOverhead(opt.Keys, 50000, opt.Seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("get path: %.0f ns plain, %.0f ns verified (+%.1f%%)\n",
			plainNs, verifyNs, 100*(verifyNs-plainNs)/plainNs)
		appendRecord(benchPath, harness.RepairRecord{
			Provenance:     harness.NewProvenance(),
			Seed:           opt.Seed,
			K:              opt.K,
			Mode:           mode,
			Rounds:         opt.Rounds,
			Keys:           opt.Keys,
			Ops:            opt.Ops,
			CrashMidScrub:  opt.CrashMidScrub,
			Injected:       sum.Injected,
			Repaired:       sum.Repaired,
			ParityRepaired: sum.ParityRepaired,
			Unrepairable:   sum.Unrepairable,
			Fired:          sum.Fired,
			ScrubSpan:      sum.ScrubSpan,
			WallSeconds:    wall,
			GetNsPlain:     plainNs,
			GetNsVerify:    verifyNs,
		})
	}
	return false
}

// runFTOverhead prices media-fault tolerance on whole benchmarks: every
// Table 5 micro (durable) and the durable TPC-C mix run over plain and
// fault-tolerant pools, and the per-op wall-time pairs land in one
// BENCH_repair.json record (mode "ft-overhead") next to the KV get-path
// verify numbers.
func runFTOverhead(seed uint64, ops int, benchPath string) {
	// Crash-campaign -ops values are far too small to time; below this
	// threshold (or unset) use measurement-sized runs instead.
	microOps, tpccOps := 20000, 300
	if ops > 100 {
		microOps = ops
		tpccOps = ops / 20
	}
	start := time.Now()
	rows, err := harness.MeasureFTOverhead(nil, microOps, tpccOps, int64(seed))
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start).Seconds()
	for _, r := range rows {
		fmt.Printf("%-4s %6d ops: %8.0f ns/op plain, %8.0f ns/op FT (+%.1f%%)\n",
			r.Bench, r.Ops, r.PlainNs, r.FTNs, 100*r.Overhead())
	}
	plainNs, verifyNs, err := harness.MeasureVerifyOverhead(2048, 50000, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("get path: %.0f ns plain, %.0f ns verified (+%.1f%%)\n",
		plainNs, verifyNs, 100*(verifyNs-plainNs)/plainNs)

	if benchPath != "" {
		appendRecord(benchPath, harness.RepairRecord{
			Provenance:  harness.NewProvenance(),
			Seed:        seed,
			Mode:        "ft-overhead",
			Ops:         microOps,
			WallSeconds: wall,
			GetNsPlain:  plainNs,
			GetNsVerify: verifyNs,
			Workloads:   rows,
		})
	}
}

// replay reproduces one recorded case and reports whether it still fails.
func replay(tok string, opt crashtest.Options) bool {
	name, event, keep, err := crashtest.ParseReplayToken(tok)
	if err != nil {
		fatal(err)
	}
	tg, err := crashtest.TargetByName(name, opt.Seed)
	if err != nil {
		fatal(err)
	}
	if err := crashtest.Replay(tg, opt, event, keep); err != nil {
		fmt.Printf("replay %s: FAIL: %v\n", tok, err)
		return true
	}
	fmt.Printf("replay %s: pass\n", tok)
	return false
}

func selectTargets(spec string, seed uint64) ([]crashtest.Target, error) {
	if spec == "all" {
		return crashtest.Targets(seed), nil
	}
	var out []crashtest.Target
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		tg, err := crashtest.TargetByName(name, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("potcrash: no targets selected")
	}
	return out, nil
}

func printSummary(sum crashtest.Summary) {
	mode := "sampled"
	if sum.Exhaustive {
		mode = "exhaustive"
	}
	fmt.Printf("%-6s span %5d events, %3d points (%s), %4d cases, %d failures\n",
		sum.Target, sum.Span, sum.Points, mode, sum.Cases, len(sum.Failures))
	for _, f := range sum.Failures {
		fmt.Printf("  FAIL %s [%s seed %d, %d lines lost]\n", f.ReplayToken(), f.Policy, f.Seed, f.Dropped)
		fmt.Printf("       %s\n", f.Err)
		if len(f.MinLost) > 0 {
			fmt.Printf("       minimal counterexample: %s\n", strings.Join(f.MinLost, " "))
		}
	}
}

// campaign is the -json output shape.
type campaign struct {
	Options   crashtest.Options   `json:"options"`
	Policies  []string            `json:"policies"`
	Summaries []crashtest.Summary `json:"summaries"`
	Wall      float64             `json:"wall_seconds"`
}

func writeJSON(path string, opt crashtest.Options, pols []string, sums []crashtest.Summary, wall float64) error {
	data, err := json.MarshalIndent(campaign{Options: opt, Policies: pols, Summaries: sums, Wall: wall}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// status folds -expect-failure into the exit code.
func status(failed, expectFail bool) int {
	if failed != expectFail {
		if expectFail {
			fmt.Fprintln(os.Stderr, "potcrash: expected the campaign to find a failure, but it passed")
		}
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "potcrash: %v\n", err)
	os.Exit(1)
}
