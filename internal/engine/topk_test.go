package engine_test

import (
	"math"
	"sort"
	"testing"
	"time"

	"dot11fp/internal/core"
	"dot11fp/internal/engine"
)

// rankScores ranks a full similarity vector the way the exhaustive
// verdict does: Sim descending, earlier reference index first on ties.
func rankScores(scores []core.Score, k int) []core.Score {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]].Sim != scores[idx[b]].Sim {
			return scores[idx[a]].Sim > scores[idx[b]].Sim
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]core.Score, k)
	for i := range out {
		out[i] = scores[idx[i]]
	}
	return out
}

// TestEngineTopKVerdictsIdentical pins Options.TopK: verdict types,
// order, Best and window summaries are bit-identical to the FullVector
// run — only the events' Scores shrink to the ranked top-k — on both
// the serial and the sharded engine, for an explicit k and for the zero
// value's DefaultTopK.
func TestEngineTopKVerdictsIdentical(t *testing.T) {
	t.Parallel()
	tr := buildScenario(t, false)
	train, valid := core.Split(tr, 3*time.Minute)
	cfg := core.Config{Param: core.ParamInterArrival}
	db := core.NewDatabase(cfg, core.MeasureCosine)
	if err := db.Train(train); err != nil {
		t.Fatal(err)
	}
	cdb := db.Compile()
	full := runEngine(t, valid, cdb, cfg, 2*time.Minute, 0)

	run := func(topk int, sharded bool) *collected {
		got := &collected{}
		sink := engine.SinkFunc(func(ev engine.Event) {
			switch ev := ev.(type) {
			case engine.CandidateMatched:
				got.cands = append(got.cands, core.Candidate{Addr: [6]byte(ev.Addr), Window: ev.Window, Sig: ev.Sig})
				got.scores = append(got.scores, ev.Scores)
				got.best = append(got.best, ev.Best)
			case engine.UnknownDevice:
				got.cands = append(got.cands, core.Candidate{Addr: [6]byte(ev.Addr), Window: ev.Window, Sig: ev.Sig})
				got.scores = append(got.scores, ev.Scores)
				got.best = append(got.best, ev.Best)
			case engine.CandidateDropped:
				got.dropped = append(got.dropped, ev)
			case engine.WindowClosed:
				got.closed = append(got.closed, ev)
			}
		})
		if sharded {
			eng, err := engine.NewSharded(cfg, cdb, engine.ShardedOptions{
				Window: 2 * time.Minute, Sink: sink, Shards: 4, TopK: topk,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); !st.Index.Enabled {
				t.Fatal("sharded Stats.Index not populated")
			}
			eng.PushTrace(valid)
			eng.Close()
			return got
		}
		eng, err := engine.New(cfg, cdb, engine.Options{
			Window: 2 * time.Minute, Sink: sink, TopK: topk,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); !st.Index.Enabled {
			t.Fatal("serial Stats.Index not populated")
		}
		eng.PushTrace(valid)
		eng.Close()
		return got
	}

	for _, mode := range []struct {
		name    string
		sharded bool
		topk, k int
	}{
		{"serial", false, 3, 3}, {"sharded", true, 3, 3},
		{"serial/default", false, 0, engine.DefaultTopK}, {"sharded/default", true, 0, engine.DefaultTopK},
	} {
		got, k := run(mode.topk, mode.sharded), mode.k
		if len(got.cands) != len(full.cands) {
			t.Fatalf("%s: %d verdicts, want %d", mode.name, len(got.cands), len(full.cands))
		}
		for i := range full.cands {
			if got.cands[i].Addr != full.cands[i].Addr || got.cands[i].Window != full.cands[i].Window {
				t.Fatalf("%s verdict %d: got (%x, w%d), want (%x, w%d)", mode.name, i,
					got.cands[i].Addr, got.cands[i].Window, full.cands[i].Addr, full.cands[i].Window)
			}
			if got.best[i].Addr != full.best[i].Addr ||
				math.Float64bits(got.best[i].Sim) != math.Float64bits(full.best[i].Sim) {
				t.Fatalf("%s verdict %d best: %+v, want %+v", mode.name, i, got.best[i], full.best[i])
			}
			want := rankScores(full.scores[i], k)
			if len(got.scores[i]) != len(want) {
				t.Fatalf("%s verdict %d: %d scores, want %d", mode.name, i, len(got.scores[i]), len(want))
			}
			for j := range want {
				if got.scores[i][j].Addr != want[j].Addr ||
					math.Float64bits(got.scores[i][j].Sim) != math.Float64bits(want[j].Sim) {
					t.Fatalf("%s verdict %d score %d: %+v, want %+v", mode.name, i, j, got.scores[i][j], want[j])
				}
			}
		}
		if len(got.closed) != len(full.closed) {
			t.Fatalf("%s: %d windows, want %d", mode.name, len(got.closed), len(full.closed))
		}
		for i := range full.closed {
			if got.closed[i] != full.closed[i] {
				t.Fatalf("%s window %d summary: %+v, want %+v", mode.name, i, got.closed[i], full.closed[i])
			}
		}
	}
}
