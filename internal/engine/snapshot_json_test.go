package engine_test

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"dot11fp/internal/core"
	"dot11fp/internal/engine"
)

// jsonKeys marshals v and returns the sorted top-level object keys.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// roundTrip marshals src and unmarshals into dst (a pointer to the
// same type), asserting the decoded value equals the original.
func roundTrip(t *testing.T, label string, src, dst any) {
	t.Helper()
	raw, err := json.Marshal(src)
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("%s: unmarshal: %v", label, err)
	}
	if got := reflect.ValueOf(dst).Elem().Interface(); !reflect.DeepEqual(got, src) {
		t.Fatalf("%s: round trip drifted:\n got  %+v\n want %+v", label, got, src)
	}
}

// TestSnapshotJSONStable pins the JSON shape of the engine's snapshot
// structs — the canonical wire form shared by the HTTP API and the
// /metrics encoder. Every field carries a distinct non-zero value so a
// dropped or misnamed tag cannot round-trip silently; the key sets are
// asserted exactly so adding or renaming a field is a deliberate,
// test-visible API change.
func TestSnapshotJSONStable(t *testing.T) {
	t.Parallel()

	stats := engine.Stats{
		Frames: 1, DroppedFrames: 2, WindowsClosed: 3, LiveSenders: 4,
		Candidates: 5, Matched: 6, Unknown: 7, Dropped: 8, Evicted: 9,
		Elapsed: 10 * time.Second, FramesPerSec: 11.5,
		Index: core.IndexStats{
			Enabled: true, References: 12, Classes: 13,
			Entries: 15, Postings: 16, IndexBytes: 17, DenseBytes: 18,
		},
	}
	var stats2 engine.Stats
	roundTrip(t, "Stats", stats, &stats2)
	wantStats := []string{
		"candidates", "dropped", "dropped_frames", "elapsed_ns", "evicted",
		"frames", "frames_per_sec", "index", "live_senders", "matched",
		"unknown", "windows_closed",
	}
	if got := jsonKeys(t, stats); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("Stats JSON keys drifted:\n got  %v\n want %v", got, wantStats)
	}
	wantIndex := []string{
		"classes", "dense_bytes", "enabled", "entries",
		"index_bytes", "postings", "references",
	}
	if got := jsonKeys(t, stats.Index); !reflect.DeepEqual(got, wantIndex) {
		t.Fatalf("IndexStats JSON keys drifted:\n got  %v\n want %v", got, wantIndex)
	}

	health := engine.Health{
		ShardPanics: 1, MergerPanics: 2, TrainerPanics: 3, EnginePanics: 4,
		LastPanic: "shard: boom", StalledShards: []int{5}, QueueDepths: []int{6, 7},
	}
	var health2 engine.Health
	roundTrip(t, "Health", health, &health2)
	wantHealth := []string{
		"engine_panics", "last_panic", "merger_panics", "queue_depths",
		"shard_panics", "stalled_shards", "trainer_panics",
	}
	if got := jsonKeys(t, health); !reflect.DeepEqual(got, wantHealth) {
		t.Fatalf("Health JSON keys drifted:\n got  %v\n want %v", got, wantHealth)
	}
	// The omitempty fields vanish on a clean snapshot: a healthy
	// engine's health is compact on the wire.
	clean := jsonKeys(t, engine.Health{ShardPanics: 1, MergerPanics: 2, TrainerPanics: 3, EnginePanics: 4})
	wantClean := []string{"engine_panics", "merger_panics", "shard_panics", "trainer_panics"}
	if !reflect.DeepEqual(clean, wantClean) {
		t.Fatalf("clean Health JSON keys drifted:\n got  %v\n want %v", clean, wantClean)
	}

	tstats := engine.TrainerStats{
		Refs: 1, Pending: 2, Enrolled: 3, Updated: 4, Swaps: 5,
		Denied: 6, Rejected: 7, EvictedPending: 8,
	}
	var tstats2 engine.TrainerStats
	roundTrip(t, "TrainerStats", tstats, &tstats2)
	wantTrainer := []string{
		"denied", "enrolled", "evicted_pending", "pending", "refs",
		"rejected", "swaps", "updated",
	}
	if got := jsonKeys(t, tstats); !reflect.DeepEqual(got, wantTrainer) {
		t.Fatalf("TrainerStats JSON keys drifted:\n got  %v\n want %v", got, wantTrainer)
	}
}
