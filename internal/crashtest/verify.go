package crashtest

import (
	"fmt"
	"sort"

	"potgo/internal/objstore"
	"potgo/internal/pds"
)

// The journaled-counter protocol behind every multi-worker campaign: a
// store appends each write to a volatile journal inside the write's
// transaction, under the lock that serializes it, and bumps a persistent
// op counter in the same transaction. Journal order is therefore commit
// order, and the recovered counter c names exactly the durable prefix
// journal[:c]. The domain poisons itself at the crash point, so nothing
// commits after the crash: every acknowledged write was acknowledged
// before it and must sit inside the durable prefix.

// journaledPrefix checks acked <= counter <= len(journal) and returns the
// durable prefix journal[:counter], which the caller replays into its
// model.
func journaledPrefix[E any](journal []E, counter, acked uint64) ([]E, error) {
	if counter < acked || counter > uint64(len(journal)) {
		return nil, fmt.Errorf("recovered counter %d outside [acked=%d, journaled=%d]",
			counter, acked, len(journal))
	}
	return journal[:counter], nil
}

// kvPrefixModel runs journaledPrefix over every shard of a KV store and
// merges the durable prefixes into one model. ran is the store that ran
// the workload and holds the volatile journals; recovered holds the
// counters. acked[i] is shard i's acknowledged-write floor; a nil acked
// demands a quiesced store, where every journaled write is durable.
func kvPrefixModel(ran, recovered *objstore.KV, shards int, acked []uint64) (map[uint64]uint64, error) {
	model := make(map[uint64]uint64)
	for i := 0; i < shards; i++ {
		journal := ran.Journal(i)
		c, err := recovered.Counter(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d counter: %w", i, err)
		}
		floor := uint64(len(journal))
		if acked != nil {
			floor = acked[i]
		}
		prefix, err := journaledPrefix(journal, c, floor)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		for k, v := range objstore.ReplayKVJournal(prefix, len(prefix)) {
			model[k] = v
		}
	}
	return model, nil
}

// checkModel compares a store with its model: every key in [1, keys] read
// through get and, when scan is non-nil, one scan that must return exactly
// the model's pairs in key order.
func checkModel(model map[uint64]uint64, keys int, get func(uint64) (uint64, bool, error), scan func() ([]pds.KV, error)) error {
	for key := uint64(1); key <= uint64(keys); key++ {
		val, ok, err := get(key)
		if err != nil {
			return fmt.Errorf("get %d: %w", key, err)
		}
		want, wantOK := model[key]
		if ok != wantOK || (ok && val != want) {
			return fmt.Errorf("key %d: read (%d,%v), model says (%d,%v)", key, val, ok, want, wantOK)
		}
	}
	if scan == nil {
		return nil
	}
	got, err := scan()
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if len(got) != len(model) {
		return fmt.Errorf("scan returned %d pairs, model holds %d", len(got), len(model))
	}
	sorted := make([]uint64, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, k := range sorted {
		if got[i].Key != k || got[i].Val != model[k] {
			return fmt.Errorf("scan[%d] = (%d,%d), want (%d,%d)", i, got[i].Key, got[i].Val, k, model[k])
		}
	}
	return nil
}
