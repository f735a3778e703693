package main

import (
	"reflect"
	"strings"
	"testing"

	"potgo/internal/crashtest"
	"potgo/internal/nvmsim"
)

func parse(t *testing.T, args string) *config {
	t.Helper()
	return parseArgs(strings.Fields(args))
}

// TestEmptyArgsKeepCampaignDefaults: with no flags, every mode runs its
// campaign's documented default configuration.
func TestEmptyArgsKeepCampaignDefaults(t *testing.T) {
	c := parse(t, "")
	if c.mode != nil {
		t.Fatalf("no mode flag given, got the %s campaign", c.mode.flag)
	}
	if got, want := c.targetOptions(), crashtest.DefaultOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("target options = %+v, want %+v", got, want)
	}
	for _, m := range campaignModes {
		if got, want := c.campaignOptions(m.defaults()), m.defaults(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s options = %+v, want %+v", m.flag, got, want)
		}
	}
	if got, want := c.repairOptions(), crashtest.DefaultRepairOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("repair options = %+v, want %+v", got, want)
	}
}

// TestPartialArgsOverrideOnlyWhatIsSet: the flags given replace their
// fields; every other field keeps the selected campaign's default.
func TestPartialArgsOverrideOnlyWhatIsSet(t *testing.T) {
	cases := []struct {
		args string
		mode string
		want func() any
		got  func(*config) any
	}{
		{"-concurrent -ops 30 -shards 2", "concurrent", func() any {
			o := crashtest.DefaultConcurrentOptions()
			o.OpsPerWorker, o.Shards = 30, 2
			return o
		}, func(c *config) any { return c.campaignOptions(c.mode.defaults()) }},
		{"-mvcc -mutate-stale-read -ops 30 -points 1", "mvcc", func() any {
			o := crashtest.DefaultConcurrentOptions()
			o.OpsPerWorker, o.Points, o.MutateStaleRead = 30, 1, true
			return o
		}, func(c *config) any { return c.campaignOptions(c.mode.defaults()) }},
		{"-cluster -mutate-split-brain", "cluster", func() any {
			o := crashtest.DefaultClusterOptions()
			o.MutateSplitBrain = true
			return o
		}, func(c *config) any { return c.campaignOptions(c.mode.defaults()) }},
		{"-cluster -nodes 5 -policies torn -seed 7", "cluster", func() any {
			o := crashtest.DefaultClusterOptions()
			o.Nodes, o.Policies, o.Seed = 5, []nvmsim.Kind{nvmsim.Torn}, 7
			return o
		}, func(c *config) any { return c.campaignOptions(c.mode.defaults()) }},
		{"-mutate-no-parity", "", func() any {
			o := crashtest.DefaultRepairOptions()
			o.K, o.NoParity = 6, true
			return o
		}, func(c *config) any { return c.repairOptions() }},
		{"-corrupt-k 3 -scrub -points 8", "", func() any {
			o := crashtest.DefaultRepairOptions()
			o.K, o.CrashMidScrub, o.Rounds = 3, true, 8
			return o
		}, func(c *config) any { return c.repairOptions() }},
		{"-targets rbt -ops 12 -points 32 -mutate-drop-clwb 1", "", func() any {
			o := crashtest.DefaultOptions()
			o.Ops, o.MaxPoints, o.Mutate.DropCLWBEveryN = 12, 32, 1
			return o
		}, func(c *config) any { return c.targetOptions() }},
	}
	for _, tc := range cases {
		c := parse(t, tc.args)
		mode := ""
		if c.mode != nil {
			mode = c.mode.flag
		}
		if mode != tc.mode {
			t.Errorf("%q: mode %q, want %q", tc.args, mode, tc.mode)
			continue
		}
		if got, want := tc.got(c), tc.want(); !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, got, want)
		}
	}
}

// TestModePrecedence: one mode runs when several are named, in table
// order.
func TestModePrecedence(t *testing.T) {
	if c := parse(t, "-concurrent -mvcc"); c.mode == nil || c.mode.flag != "mvcc" {
		t.Fatalf("-concurrent -mvcc selected %+v, want mvcc", c.mode)
	}
}
