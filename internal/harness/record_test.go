package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// testDuplicates appends mk's record for a clean tree, then requires that
// the same tree and configuration is refused with ErrDuplicateRecord and
// leaves the file alone, while a different tree, each variant
// configuration of the same tree, and dirty or unknown trees are all new
// records.
func testDuplicates[T Record[T]](t *testing.T, mk func(sha string) T, variants ...func(*T)) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	count := func() int {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []T
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	add := func(what string, rec T) {
		if err := AppendRecord(path, rec); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	add("first append", mk("abc123"))
	if err := AppendRecord(path, mk("abc123")); !errors.Is(err, ErrDuplicateRecord) {
		t.Fatalf("second append: got %v, want ErrDuplicateRecord", err)
	}
	if n := count(); n != 1 {
		t.Fatalf("trajectory has %d records after refused duplicate, want 1", n)
	}
	add("new sha", mk("def456"))
	for i, change := range variants {
		rec := mk("abc123")
		change(&rec)
		add("variant "+string(rune('a'+i)), rec)
	}
	// Dirty trees share a SHA but not contents, and unknown trees cannot
	// be compared: neither is ever deduplicated.
	for _, sha := range []string{"abc123-dirty", "abc123-dirty", "", ""} {
		add("exempt sha "+sha, mk(sha))
	}
	if n, want := count(), 6+len(variants); n != want {
		t.Fatalf("trajectory has %d records, want %d", n, want)
	}
}

func stamp(sha string) Provenance {
	return Provenance{Timestamp: "2026-01-01T00:00:00Z", GitSHA: sha, GoVersion: "go1.24", NumCPU: 8}
}

// TestAppendRecordRefusesDuplicates covers the duplicate rule of every
// record type, keyed on each type's SameConfig.
func TestAppendRecordRefusesDuplicates(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"crash", func(t *testing.T) {
			testDuplicates(t, func(sha string) CrashRecord {
				return CrashRecord{Provenance: stamp(sha), Seed: 1, Ops: 12, MaxPoints: 48,
					Policies: []string{"drop-all", "torn"}, Targets: []string{"list", "bst"}, Cases: 96}
			},
				func(r *CrashRecord) { r.Seed = 2 },
				func(r *CrashRecord) { r.Targets = []string{"rbt"} },
				func(r *CrashRecord) { r.Policies = []string{"torn"} })
		}},
		{"repair", func(t *testing.T) {
			testDuplicates(t, func(sha string) RepairRecord {
				return RepairRecord{Provenance: stamp(sha), Seed: 9, K: 2, Mode: "detect", Rounds: 3, Keys: 96, Ops: 200}
			},
				func(r *RepairRecord) { r.K = 4 },
				func(r *RepairRecord) { r.Mode = "silent" },
				func(r *RepairRecord) { r.CrashMidScrub = true })
		}},
		{"serve", func(t *testing.T) {
			testDuplicates(t, func(sha string) ServeRecord {
				return ServeRecord{Provenance: stamp(sha), Seed: 1, Conns: 2, OpsPerConn: 500, Depth: 8,
					KeySpace: 1000, ReadPct: 90, Shards: 8, InProcess: true}
			},
				func(r *ServeRecord) { r.Depth = 16 },
				func(r *ServeRecord) { r.Snapshot = true },
				func(r *ServeRecord) { r.Cluster = 3 })
		}},
		{"speed", func(t *testing.T) {
			testDuplicates(t, func(sha string) SpeedRecord {
				return SpeedRecord{Provenance: stamp(sha), Parallel: 4, Quick: true,
					Experiments: []string{"table2", "fig9a"}, SimulatedMIPS: 10}
			},
				func(r *SpeedRecord) { r.Quick = false },
				func(r *SpeedRecord) { r.Parallel = 1 },
				func(r *SpeedRecord) { r.Experiments = []string{"table2"} })
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// roundTrip decodes a committed trajectory file and requires the records
// to encode back to the file's exact bytes.
func roundTrip[T any](t *testing.T, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	var recs []T
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if out = append(out, '\n'); !bytes.Equal(out, data) {
		t.Fatalf("%s: %d records re-encode to different bytes", name, len(recs))
	}
}

// TestCommittedRecordsRoundTrip pins the JSON shape of every record type
// to the committed trajectory files.
func TestCommittedRecordsRoundTrip(t *testing.T) {
	roundTrip[CrashRecord](t, "BENCH_crash.json")
	roundTrip[RepairRecord](t, "BENCH_repair.json")
	roundTrip[ServeRecord](t, "BENCH_serve.json")
	roundTrip[SpeedRecord](t, "BENCH_simspeed.json")
}
