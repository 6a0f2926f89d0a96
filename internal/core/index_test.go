package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dot11fp/internal/dot11"
)

// The match property: every match entry point of a compiled snapshot is
// bit-identical — scores, order and ties — to the naive per-pair
// Similarity loop (naiveMatch) ranked stably or filtered by >=. These
// tests compare results with math.Float64bits, across all four
// measures, random sparse databases, planted exact ties, disjoint
// supports, and an adversarial candidate whose true best hides behind
// the most common bin.

var allMeasures = []Measure{MeasureCosine, MeasureIntersection, MeasureBhattacharyya, MeasureL1}

var propClasses = []dot11.Class{dot11.ClassData, dot11.ClassQoSData, dot11.ClassNull, dot11.ClassBeacon}

// randSig builds a random sparse signature over nbins: a random subset
// of classes, each with a few random bins, occasionally empty-ish.
func randSig(rng *rand.Rand, spec BinSpec) *Signature {
	sig := NewSignature(ParamInterArrival, spec)
	for _, class := range propClasses {
		if rng.Intn(3) == 0 {
			continue
		}
		nnz := 1 + rng.Intn(6)
		for j := 0; j < nnz; j++ {
			synthAdd(sig, class, rng.Intn(spec.Bins), 1+rng.Intn(5))
		}
	}
	return sig
}

// buildRefs enrolls sigs as references synthAddr(0..) of a fresh
// database over 64 bins.
func buildRefs(t *testing.T, measure Measure, sigs []*Signature) *Database {
	t.Helper()
	spec := BinSpec{Width: synthWidth, Bins: 64}
	db := NewDatabase(Config{Param: ParamInterArrival, Bins: spec, MinObservations: 1}, measure)
	for i, sig := range sigs {
		if err := db.Add(synthAddr(i), sig.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func sameScores(t *testing.T, label string, want, got []Score) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Addr != got[i].Addr || math.Float64bits(want[i].Sim) != math.Float64bits(got[i].Sim) {
			t.Fatalf("%s[%d]: got %v/%x, want %v/%x", label, i,
				got[i].Addr, math.Float64bits(got[i].Sim),
				want[i].Addr, math.Float64bits(want[i].Sim))
		}
	}
}

// exhaustiveTopK ranks a full similarity vector independently of the
// production code: stable sort by (Sim desc, insertion index asc).
func exhaustiveTopK(scores []Score, k int) []Score {
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
	out := make([]Score, k)
	for i := 0; i < k; i++ {
		out[i] = scores[idx[i]]
	}
	return out
}

// filterAbove is the similarity test over a full vector: the entries
// scoring at least th, in insertion order.
func filterAbove(scores []Score, th float64) []Score {
	var out []Score
	for _, sc := range scores {
		if sc.Sim >= th {
			out = append(out, sc)
		}
	}
	return out
}

// sameBest pins a Best result against the top entry of the stably
// ranked naive vector, with ok reporting a non-negative score.
func sameBest(t *testing.T, label string, naive []Score, got Score, ok bool) {
	t.Helper()
	want := exhaustiveTopK(naive, 1)[0]
	sameScores(t, label+" Best", []Score{want}, []Score{got})
	if ok != (want.Sim >= 0) {
		t.Fatalf("%s Best: ok = %v for score %v", label, ok, want.Sim)
	}
}

func TestIndexBitIdentical(t *testing.T) {
	for _, measure := range allMeasures {
		measure := measure
		t.Run(measure.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				spec := BinSpec{Width: synthWidth, Bins: 64}
				n := 40 + rng.Intn(80)
				sigs := make([]*Signature, 0, n+2)
				for i := 0; i < n; i++ {
					sigs = append(sigs, randSig(rng, spec))
				}
				// Planted exact ties: two clones of an existing reference.
				sigs = append(sigs, sigs[7].Clone(), sigs[7].Clone())
				db := buildRefs(t, measure, sigs)
				c, dense := db.Compile(), compileDense(db)

				var scratch MatchScratch
				for trial := 0; trial < 12; trial++ {
					var cand *Signature
					switch trial {
					case 0:
						cand = sigs[7].Clone() // exact triple tie at the top
					case 1:
						cand = nil
					case 2:
						cand = NewSignature(ParamInterArrival, spec) // empty
					default:
						cand = randSig(rng, spec)
					}
					want := naiveMatch(db, cand)
					sameScores(t, "Match", want, c.Match(cand))
					sameScores(t, "dense baseline", want, dense.matchAll([]Candidate{{Sig: cand}}, &scratch)[0])
					gb, gok := c.Best(cand)
					sameBest(t, "Best", want, gb, gok)

					for _, k := range []int{1, 2, 5, len(sigs), len(sigs) + 3} {
						sameScores(t, "TopKInto", exhaustiveTopK(want, k), c.TopKInto(cand, k, &scratch))
						sameScores(t, "TopK", exhaustiveTopK(want, k), c.TopK(cand, k))
					}

					// Thresholds at exact score values hit the tie edge.
					thresholds := []float64{-0.5, 0, 1e-9, 0.3, 0.99, 1.5}
					for _, sc := range want[:min(4, len(want))] {
						thresholds = append(thresholds, sc.Sim)
					}
					for _, th := range thresholds {
						sameScores(t, "Above", filterAbove(want, th), c.Above(cand, th))
					}
				}
			}
		})
	}
}

// TestIndexAdversarialCommonBin hides the true best match behind the
// candidate's most common bin: every reference shares bin 0 (a huge
// posting), and only the winner's entire mass sits there. A search that
// stopped after the rare bins would return the decoy sharing the rare
// bin 63; selection from the full scatter must not.
func TestIndexAdversarialCommonBin(t *testing.T) {
	for _, measure := range allMeasures {
		spec := BinSpec{Width: synthWidth, Bins: 64}
		n := 300
		sigs := make([]*Signature, n)
		rng := rand.New(rand.NewSource(9))
		for i := range sigs {
			sig := NewSignature(ParamInterArrival, spec)
			synthAdd(sig, dot11.ClassData, 0, 1) // the universal bin
			synthAdd(sig, dot11.ClassData, 1+rng.Intn(62), 8)
			sigs[i] = sig
		}
		// The winner: all mass on the universal bin.
		winner := NewSignature(ParamInterArrival, spec)
		synthAdd(winner, dot11.ClassData, 0, 9)
		sigs[n-1] = winner
		// The decoy shares the candidate's rare bin 63 with minor mass.
		decoy := NewSignature(ParamInterArrival, spec)
		synthAdd(decoy, dot11.ClassData, 0, 1)
		synthAdd(decoy, dot11.ClassData, 63, 8)
		sigs[n-2] = decoy

		cand := NewSignature(ParamInterArrival, spec)
		synthAdd(cand, dot11.ClassData, 0, 30)
		synthAdd(cand, dot11.ClassData, 63, 1)

		db := buildRefs(t, measure, sigs)
		want := naiveMatch(db, cand)
		if wb := exhaustiveTopK(want, 1)[0]; wb.Addr != synthAddr(n-1) {
			t.Fatalf("%v: scenario broken: naive best is %v, want the common-bin winner %v",
				measure, wb.Addr, synthAddr(n-1))
		}
		c := db.Compile()
		gb, gok := c.Best(cand)
		sameBest(t, measure.String(), want, gb, gok)
		var scratch MatchScratch
		sameScores(t, "TopK", exhaustiveTopK(want, 5), c.TopKInto(cand, 5, &scratch))
	}
}

// TestIndexDisjointL1 pins the subtle L1 case: a reference sharing a
// class but no bins has a similarity near — but not exactly — zero
// (frequency rounding), which bin-overlap shortlists would silently
// replace with 0. The class-overlap merge must reproduce it bit for bit.
func TestIndexDisjointL1(t *testing.T) {
	spec := BinSpec{Width: synthWidth, Bins: 64}
	sigs := make([]*Signature, 280)
	for i := range sigs {
		// Three equal thirds: the frequencies sum to 0.9999999999999999,
		// so a disjoint distance misses exact 2 by one ulp.
		sig := NewSignature(ParamInterArrival, spec)
		synthAdd(sig, dot11.ClassData, i%29, 1)
		synthAdd(sig, dot11.ClassData, 29+(i%15), 1)
		synthAdd(sig, dot11.ClassData, 44+(i%13), 1)
		sigs[i] = sig
	}
	cand := NewSignature(ParamInterArrival, spec)
	synthAdd(cand, dot11.ClassData, 60, 1)
	synthAdd(cand, dot11.ClassData, 61, 1)
	synthAdd(cand, dot11.ClassData, 62, 1)

	db := buildRefs(t, MeasureL1, sigs)
	want := naiveMatch(db, cand)
	nonzero := 0
	for _, sc := range want {
		if sc.Sim != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("scenario broken: expected disjoint L1 scores off exact zero")
	}
	c := db.Compile()
	sameScores(t, "Match", want, c.Match(cand))
	gb, gok := c.Best(cand)
	sameBest(t, "L1", want, gb, gok)
}

// TestTopKBatchConsistent pins the batch top-k entry points against the
// one-shot path for every worker count.
func TestTopKBatchConsistent(t *testing.T) {
	db, cands := synthDB(600, 12, MeasureCosine)
	c := db.Compile()
	var scratch MatchScratch
	want := make([][]Score, len(cands))
	for i := range cands {
		want[i] = c.TopK(cands[i].Sig, 4)
	}
	got := c.TopKAllScratch(cands, 4, &scratch)
	for i := range want {
		sameScores(t, "TopKAllScratch", want[i], got[i])
	}
	for _, workers := range []int{1, 3, 8} {
		got := c.TopKAllWorkers(cands, 4, workers)
		for i := range want {
			sameScores(t, "TopKAllWorkers", want[i], got[i])
		}
	}
}

// TestMatchAppendReuse pins the allocation contract of the append-style
// convenience entry point.
func TestMatchAppendReuse(t *testing.T) {
	db, cands := synthDB(300, 2, MeasureCosine)
	c := db.Compile()
	want := c.Match(cands[0].Sig)
	dst := c.MatchAppend(cands[0].Sig, nil)
	sameScores(t, "MatchAppend(nil)", want, dst)
	dst = c.MatchAppend(cands[0].Sig, dst[:0])
	sameScores(t, "MatchAppend(reuse)", want, dst)
	if raceEnabled {
		t.Log("race detector on: sync.Pool drops the pooled scratch, allocations not counted")
		return
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst = c.MatchAppend(cands[0].Sig, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("MatchAppend with warm buffer: %.1f allocs/op, want 0", allocs)
	}
}
