package crashtest

import (
	"strings"
	"testing"

	"potgo/internal/obs"
	"potgo/internal/randtest"
)

// TestMVCCCampaign runs the full MVCC crash campaign: armed crashes under
// a snapshot-read workload with concurrent epoch reclamation, power cycles
// under rotating adversaries, and the journaled-counter + snapshot-sweep
// verification after each one.
func TestMVCCCampaign(t *testing.T) {
	opt := DefaultConcurrentOptions()
	opt.Seed = uint64(randtest.Seed(t, 11))
	if testing.Short() {
		opt.Points = 4
	}
	reg := obs.NewRegistry()
	opt.Obs = reg

	sum, err := RunMVCC(opt)
	if err != nil {
		t.Fatalf("mvcc campaign: %v", err)
	}
	t.Logf("points=%d fired=%d completed=%d acked=%d snapReads=%d reclaims=%d span=%d",
		sum.Points, sum.Fired, sum.Completed, sum.AckedOps, sum.SnapshotReads, sum.Reclaims, sum.Span)
	if sum.Fired == 0 {
		t.Fatal("no sampled crash point fired: the campaign never crashed mid-workload")
	}
	if sum.AckedOps == 0 || sum.SnapshotReads == 0 {
		t.Fatalf("campaign too quiet: acked=%d snapshot reads=%d", sum.AckedOps, sum.SnapshotReads)
	}
	if sum.Reclaims == 0 {
		t.Fatal("the reclamation goroutine never swept")
	}
}

// TestMVCCStaleMutationCaught proves the campaign's SI checker catches the
// frozen-pin bug injection — the mutation mode must FAIL.
func TestMVCCStaleMutationCaught(t *testing.T) {
	opt := DefaultConcurrentOptions()
	opt.Seed = uint64(randtest.Seed(t, 12))
	opt.Points = 1
	opt.MutateStaleRead = true
	_, err := RunMVCC(opt)
	if err == nil {
		t.Fatal("stale-read mutation went undetected — the harness cannot catch the bug it exists for")
	}
	if !strings.Contains(err.Error(), "SI violation") {
		t.Fatalf("mutation mode failed for the wrong reason: %v", err)
	}
	t.Logf("detected: %v", err)
}

// TestMVCCCampaignRejectsBadOptions pins the option validation.
func TestMVCCCampaignRejectsBadOptions(t *testing.T) {
	opt := DefaultConcurrentOptions()
	opt.Workers = 0
	if _, err := RunMVCC(opt); err == nil {
		t.Fatal("zero workers accepted")
	}
}
