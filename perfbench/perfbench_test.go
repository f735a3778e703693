package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"potgo/internal/potserve"
)

// tiny is a run small enough for a unit test.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace, scale: 0.01,
		spanOut: filepath.Join(t.TempDir(), "spans.json"), simOps: 150,
	}
}

// tinyPins pins the tiny sim specs from one run of the simulator.
func tinyPins(t *testing.T, seed uint64, ops int) map[simKey]simPin {
	t.Helper()
	s := simSeed(seed)
	runs, err := simPass(simSpecs(s, ops), false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[simKey]simPin{}
	for i, r := range runs {
		pins[simKey{s, simSpecNames[i]}] = simPin{r.r.CPU.Instructions, r.r.CPU.Cycles, r.r.Checksum,
			r.r.CPU.POLB.Misses, r.r.CPU.Translation.POTWalks}
	}
	return pins
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadTable {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, command runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestTinyRunsReportEveryMetric runs every workload small, untraced and
// traced: every metric is printed with its unit and nothing fails.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, w := range workloadTable {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, w.name, trace)
			if w.kind == "sim" {
				cfg.simPins = tinyPins(t, cfg.seed, cfg.simOps)
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			rep, err := res.report(trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct %t, %d of %d failed: %v", w.name, trace, rep.Correct, rep.Failed, rep.Attempted, res.firstErr)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or wrong unit (%+v)", w.name, trace, d.name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			if f := rep.Metrics["failed_frac"]; trace && f.Value != 0 {
				t.Errorf("%s: failed_frac %v", w.name, f.Value)
			}
			if trace {
				if _, err := os.Stat(cfg.spanOut); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// corruptGet flips the value of the first successful GET it serves: only
// the first send into the one-slot channel succeeds.
type corruptGet struct {
	inner potserve.Backend
	once  chan struct{}
}

func (c *corruptGet) Exec(req *potserve.Request, resp *potserve.Response) {
	c.inner.Exec(req, resp)
	if req.Op == potserve.OpGet && resp.Status == potserve.StatusOK {
		select {
		case c.once <- struct{}{}:
			resp.Val ^= 1 << 40
		default:
		}
	}
}

// TestCorruptGetFailsRun: one wrong GET value makes the run incorrect.
func TestCorruptGetFailsRun(t *testing.T) {
	for _, wl := range []string{"kv-update", "kv-read"} {
		cfg := tiny(t, wl, false)
		cfg.wrap = func(be potserve.Backend) potserve.Backend {
			return &corruptGet{inner: be, once: make(chan struct{}, 1)}
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := res.report(false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed != 1 {
			t.Errorf("%s: corrupted GET gave correct=%t failed=%d, want one failure", wl, rep.Correct, rep.Failed)
		}
	}
}

// TestSimPinOffByOneFailsRun: a pinned cycle count one off makes the sim
// run incorrect.
func TestSimPinOffByOneFailsRun(t *testing.T) {
	cfg := tiny(t, "sim-fig9b", false)
	cfg.simPins = tinyPins(t, cfg.seed, cfg.simOps)
	k := simKey{simSeed(cfg.seed), "bst_opt"}
	p := cfg.simPins[k]
	p.cycles++
	cfg.simPins[k] = p
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.report(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("off-by-one pin gave correct=%t failed=%d", rep.Correct, rep.Failed)
	}
}

// TestDefaultPinsHold checks the cheapest full-size spec against the
// pinned table the benchmark ships.
func TestDefaultPinsHold(t *testing.T) {
	runs, err := simPass(simSpecs(1, 0)[1:2], false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0].r
	got := simPin{r.CPU.Instructions, r.CPU.Cycles, r.Checksum, r.CPU.POLB.Misses, r.CPU.Translation.POTWalks}
	if want := defaultSimPins[simKey{1, "ll_opt"}]; got != want {
		t.Errorf("ll_opt seed 1: got %+v, pinned %+v", got, want)
	}
}

// TestSpanParents: a follower's REP apply is recorded before the
// coordinator Exec that sent it returns, and both still link up: batch ←
// coordinator Exec ← rep_apply.
func TestSpanParents(t *testing.T) {
	key := uint64(0)
	for !sampled(key) {
		key++
	}
	tr := newTracer()
	t0 := time.Now()
	put := potserve.Request{Op: potserve.OpPut, Key: key, Val: 1}
	rep := potserve.Request{Op: potserve.OpRep, Entries: []potserve.RepEntry{{Seq: 1, Key: key, Val: 1}}}
	tr.serverExec(1, &rep, &potserve.Response{}, t0.Add(2*time.Microsecond), t0.Add(3*time.Microsecond))
	tr.serverExec(0, &put, &potserve.Response{}, t0.Add(time.Microsecond), t0.Add(4*time.Microsecond))
	tr.clientBatch(owner(key), []potserve.Request{put}, t0, t0.Add(5*time.Microsecond))

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string
		Args map[string]any
	}
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatal(err)
	}
	ids := map[string]float64{}
	parents := map[string]float64{}
	for _, e := range events {
		if id, ok := e.Args["id"].(float64); ok {
			ids[e.Name], parents[e.Name] = id, e.Args["parent"].(float64)
		}
	}
	if parents["cluster.exec.put"] != ids["client.batch"] || parents["cluster.rep_apply"] != ids["cluster.exec.put"] ||
		ids["cluster.rep_apply"] == 0 {
		t.Errorf("span ids %v, parents %v: want batch <- exec <- rep_apply", ids, parents)
	}
}
