package core

import (
	"math"
	"math/rand"
	"testing"
)

// Fused selection over indexed members must preserve the ensemble's
// bit-identity contract: every fused TopK/Best result with all members
// indexed is bit-for-bit the ranking of the exhaustive fused MatchInto
// vector.

// randSigFor is randSig for an arbitrary member parameter.
func randSigFor(rng *rand.Rand, p Param, spec BinSpec) *Signature {
	sig := NewSignature(p, spec)
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

// buildEnsemblePair mirrors buildPair for ensembles: identical member
// references enrolled into an exhaustive and an indexed ensemble.
func buildEnsemblePair(t *testing.T, measure Measure, params []Param, sigs [][]*Signature) (exh, idx *Ensemble) {
	t.Helper()
	spec := BinSpec{Width: synthWidth, Bins: 64}
	var dbsE, dbsI []*Database
	for mi, p := range params {
		cfg := Config{Param: p, Bins: spec, MinObservations: 1}
		dbE := NewDatabase(cfg, measure)
		dbE.SetIndexing(IndexOff)
		dbI := NewDatabase(cfg, measure)
		dbI.SetIndexing(IndexOn)
		for i, sig := range sigs[mi] {
			if err := dbE.Add(synthAddr(i), sig.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := dbI.Add(synthAddr(i), sig.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		dbsE = append(dbsE, dbE)
		dbsI = append(dbsI, dbI)
	}
	exh, err := NewEnsembleFrom(dbsE...)
	if err != nil {
		t.Fatal(err)
	}
	idx, err = NewEnsembleFrom(dbsI...)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Compile().IndexStats().Enabled {
		t.Fatal("ensemble IndexStats not enabled with every member indexed")
	}
	return exh, idx
}

func TestEnsembleIndexBitIdentical(t *testing.T) {
	params := []Param{ParamRate, ParamSize, ParamInterArrival}
	for _, measure := range allMeasures {
		measure := measure
		t.Run(measure.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			spec := BinSpec{Width: synthWidth, Bins: 64}
			n := 90
			sigs := make([][]*Signature, len(params))
			for mi, p := range params {
				for i := 0; i < n; i++ {
					sigs[mi] = append(sigs[mi], randSigFor(rng, p, spec))
				}
				// Planted exact fused ties: two clones of reference 7.
				sigs[mi] = append(sigs[mi], sigs[mi][7].Clone(), sigs[mi][7].Clone())
			}
			exh, idx := buildEnsemblePair(t, measure, params, sigs)
			ce, ci := exh.Compile(), idx.Compile()

			var scratch EnsembleScratch
			for trial := 0; trial < 10; trial++ {
				cand := MultiCandidate{Addr: synthAddr(1000 + trial)}
				switch trial {
				case 0: // exact triple tie at the top
					for mi := range params {
						cand.Sigs = append(cand.Sigs, sigs[mi][7].Clone())
					}
				case 1: // nil member signatures
					cand.Sigs = make([]*Signature, len(params))
				case 2: // empty member signatures
					for _, p := range params {
						cand.Sigs = append(cand.Sigs, NewSignature(p, spec))
					}
				default:
					for _, p := range params {
						cand.Sigs = append(cand.Sigs, randSigFor(rng, p, spec))
					}
				}
				want, _ := ce.Match(cand)
				got, _ := ci.Match(cand)
				sameScores(t, "Match", want, got)

				wb, wok := ce.Best(cand)
				gb, gok := ci.Best(cand)
				if wok != gok || wb.Addr != gb.Addr || math.Float64bits(wb.Sim) != math.Float64bits(gb.Sim) {
					t.Fatalf("Best: got %v/%x/%v, want %v/%x/%v",
						gb.Addr, math.Float64bits(gb.Sim), gok, wb.Addr, math.Float64bits(wb.Sim), wok)
				}

				for _, k := range []int{1, 2, 5, ce.Len(), ce.Len() + 3} {
					sameScores(t, "TopK(ranked)", exhaustiveTopK(want, k), ci.TopKInto(cand, k, &scratch))
					sameScores(t, "TopK(fallback)", ce.TopK(cand, k), ci.TopK(cand, k))
				}
			}

			// Mismatched candidates yield nil, like MatchInto.
			if got := ci.TopK(MultiCandidate{}, 3); got != nil {
				t.Fatalf("TopK on mismatched candidate: %v, want nil", got)
			}
		})
	}
}

// TestEnsembleTopKBatchConsistent pins the fused batch top-k entry
// points against the one-shot path for every worker count, mismatched
// rows included.
func TestEnsembleTopKBatchConsistent(t *testing.T) {
	params := []Param{ParamRate, ParamInterArrival}
	spec := BinSpec{Width: synthWidth, Bins: 64}
	rng := rand.New(rand.NewSource(21))
	sigs := make([][]*Signature, len(params))
	for mi, p := range params {
		for i := 0; i < 300; i++ {
			sigs[mi] = append(sigs[mi], randSigFor(rng, p, spec))
		}
	}
	_, idx := buildEnsemblePair(t, MeasureCosine, params, sigs)
	ci := idx.Compile()

	cands := make([]MultiCandidate, 24)
	for i := range cands {
		cands[i].Addr = synthAddr(2000 + i)
		for _, p := range params {
			cands[i].Sigs = append(cands[i].Sigs, randSigFor(rng, p, spec))
		}
	}
	cands[5].Sigs = cands[5].Sigs[:1] // member-count mismatch: nil row

	want := make([][]Score, len(cands))
	for i := range cands {
		want[i] = ci.TopK(cands[i], 4)
	}
	if want[5] != nil {
		t.Fatal("mismatched candidate should rank nil")
	}
	var scratch EnsembleScratch
	got := ci.TopKAllScratch(cands, 4, &scratch)
	for i := range want {
		sameScores(t, "TopKAllScratch", want[i], got[i])
	}
	for _, workers := range []int{1, 3, 8} {
		got := ci.TopKAllWorkers(cands, 4, workers)
		for i := range want {
			sameScores(t, "TopKAllWorkers", want[i], got[i])
		}
	}
}

// TestEnsembleIndexMixedFallback pins the fallback: an ensemble with
// one unindexed member still ranks bit-identically through the fused
// exhaustive vector, and SetIndexing forwards to every member.
func TestEnsembleIndexMixedFallback(t *testing.T) {
	params := []Param{ParamRate, ParamInterArrival}
	spec := BinSpec{Width: synthWidth, Bins: 64}
	rng := rand.New(rand.NewSource(31))
	sigs := make([][]*Signature, len(params))
	for mi, p := range params {
		for i := 0; i < 80; i++ {
			sigs[mi] = append(sigs[mi], randSigFor(rng, p, spec))
		}
	}
	exh, idx := buildEnsemblePair(t, MeasureIntersection, params, sigs)
	idx.Members()[1].SetIndexing(IndexOff)
	ci := idx.Compile()
	if ci.IndexStats().Enabled {
		t.Fatal("ensemble IndexStats enabled with an unindexed member")
	}
	cand := MultiCandidate{Addr: synthAddr(999)}
	for _, p := range params {
		cand.Sigs = append(cand.Sigs, randSigFor(rng, p, spec))
	}
	fused, _ := exh.Compile().Match(cand)
	sameScores(t, "TopK(mixed)", exhaustiveTopK(fused, 6), ci.TopK(cand, 6))

	idx.SetIndexing(IndexOn)
	if !idx.Compile().IndexStats().Enabled {
		t.Fatal("Ensemble.SetIndexing(IndexOn) did not reach every member")
	}
	sameScores(t, "TopK(restored)", exhaustiveTopK(fused, 6), idx.TopK(cand, 6))
}
