package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Provenance heads every trajectory record: when it was taken, on which
// tree and on what machine.
type Provenance struct {
	// Timestamp is RFC 3339 UTC.
	Timestamp string `json:"timestamp"`
	// GitSHA identifies the tree ("" when unknown, "-dirty" suffix for
	// uncommitted changes); used to refuse duplicate records.
	GitSHA string `json:"git_sha,omitempty"`
	// GoVersion and NumCPU describe the machine.
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
}

// NewProvenance stamps a record taken now, on the working tree's commit,
// on this machine.
func NewProvenance() Provenance {
	return Provenance{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
}

func (p Provenance) provenance() Provenance { return p }

// gitSHA identifies the working tree: the short commit hash, "-dirty"
// when uncommitted changes exist, or "" when git is unavailable (then
// duplicate detection is skipped).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
		sha += "-dirty"
	}
	return sha
}

// ErrDuplicateRecord reports that a trajectory file already holds a
// record of the same tree and configuration; a second one would only add
// noise to regression tracking.
var ErrDuplicateRecord = errors.New("duplicate record for this git SHA and configuration")

// Record is a trajectory-file entry: CrashRecord, RepairRecord,
// ServeRecord or SpeedRecord.
type Record[T any] interface {
	provenance() Provenance
	// SameConfig reports whether two records ran the same configuration.
	SameConfig(T) bool
}

// AppendRecord appends rec to the JSON-array trajectory file at path,
// creating it if absent. When rec carries a git SHA and the file already
// holds a record of the same SHA and configuration, nothing is written
// and the error wraps ErrDuplicateRecord. Dirty trees ("-dirty" suffix)
// are exempt: successive uncommitted states share a SHA yet are
// different trees.
func AppendRecord[T Record[T]](path string, rec T) error {
	var records []T
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("harness: %s holds invalid trajectory data: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("harness: %w", err)
	}
	if sha := rec.provenance().GitSHA; sha != "" && !strings.HasSuffix(sha, "-dirty") {
		for _, r := range records {
			if r.provenance().GitSHA == sha && r.SameConfig(rec) {
				return fmt.Errorf("harness: %s: %w (sha %s, recorded %s)",
					path, ErrDuplicateRecord, sha, r.provenance().Timestamp)
			}
		}
	}
	records = append(records, rec)
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
