// Command perfbench is potgo's benchmark: one workload per run, every
// answer checked against an oracle, every metric printed by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run prints the per-layer ones and writes a Perfetto span
// file. From the repository root:
//
//	bash perfbench/run.sh --workload kv-update --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"potgo/internal/potserve"
	"potgo/internal/prof"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// spanOut is the Perfetto file of a traced run.
	spanOut string
	// scale multiplies key counts and op counts (1 = the benchmark; the
	// self-test shrinks it).
	scale float64
	// wrap, when set, wraps every server backend (the self-test's fault
	// injection).
	wrap func(potserve.Backend) potserve.Backend
	// simOps overrides the simulated op count (0 = paper defaults) and
	// simPins the pinned sim results; the self-test sets both.
	simOps  int
	simPins map[simKey]simPin
	// profile starts the requested profiles once set-up is done and
	// returns their stop function.
	profile func() func()
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 3

func main() {
	var (
		wl       = flag.String("workload", "", "workload: kv-update, kv-read, cluster-write or sim-fig9b")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds (sizes the fixed op counts)")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		spans    = flag.String("spans", "", "traced run: Perfetto span file (default .bench_build/spans/<workload>-<seed>.trace.json)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the measured phases")
		memProf  = flag.String("memprofile", "", "write an allocation profile at the end of the measured phases")
		mutexOut = flag.String("mutexprofile", "", "write a mutex contention profile of the measured phases")
		blockOut = flag.String("blockprofile", "", "write a blocking profile of the measured phases")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fatal(fmt.Errorf("--trace must be 0 or 1 and --seconds positive"))
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, spanOut: *spans, scale: 1}
	if cfg.trace && cfg.spanOut == "" {
		cfg.spanOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.trace.json", *wl, *seed))
	}
	cfg.profile = func() func() {
		stop, err := startProfiles(*cpuProf, *memProf, *mutexOut, *blockOut)
		if err != nil {
			fatal(err)
		}
		return func() {
			if err := stop(); err != nil {
				fatal(err)
			}
		}
	}

	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := res.report(cfg.trace)
	if err != nil {
		fatal(err)
	}
	if res.firstErr != nil {
		fmt.Printf("first failure: %v\n", res.firstErr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload run.
func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.profile == nil {
		cfg.profile = func() func() { return func() {} }
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	printProvenance(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &result{}
	switch w.kind {
	case "kv":
		err = runKV(cfg, w, tr, res)
	case "cluster":
		err = runCluster(cfg, w, tr, res)
	default:
		err = runSim(cfg, tr, res)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil && cfg.spanOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.spanOut), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(cfg.spanOut); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), cfg.spanOut)
	}
	return res, nil
}

// scaled applies the run's scale to a count, keeping it at least min.
func (c config) scaled(n float64, min int) int {
	v := int(n * c.scale)
	if v < min {
		return min
	}
	return v
}

// liveHeapMB is the heap in use after a forced collection, in 10^6 bytes.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// startProfiles starts the CPU (and arms the mutex and block) profiles;
// the returned stop writes every requested file.
func startProfiles(cpuPath, memPath, mutexPath, blockPath string) (func() error, error) {
	stop, err := prof.Start(cpuPath, memPath)
	if err != nil {
		return nil, err
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		err := stop()
		for _, p := range []struct{ name, path string }{{"mutex", mutexPath}, {"block", blockPath}} {
			if p.path == "" {
				continue
			}
			f, ferr := os.Create(p.path)
			if ferr != nil {
				return ferr
			}
			werr := pprof.Lookup(p.name).WriteTo(f, 0)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("write %s profile: %w", p.name, werr)
			}
		}
		return err
	}, nil
}

// printProvenance prints where and from what the numbers come. A binary
// built outside a git checkout carries no revision.
func printProvenance(cfg config) {
	sha, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	p := map[string]any{
		"git_sha": sha, "dirty": dirty, "cpu": cpuModel(), "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "seed": cfg.seed,
		"workload": cfg.workload, "seconds": cfg.seconds, "trace": cfg.trace,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
	if sha == "unknown" {
		p["dirty"] = "unknown"
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Printf("provenance: %s\n", b)
	if dirty {
		fmt.Println("provenance: DIRTY TREE — these numbers do not belong to a commit")
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
