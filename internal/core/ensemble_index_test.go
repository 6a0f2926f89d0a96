package core

import (
	"math/rand"
	"testing"
)

// Fused matching must preserve the ensemble's bit-identity contract:
// the fused vector is bit for bit the mean of the members' naive
// Similarity values (naiveFused), and every fused TopK/Best result is
// its stable ranking.

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

// buildEnsemble mirrors buildRefs for ensembles: member mi enrolls
// sigs[mi] as references synthAddr(0..).
func buildEnsemble(t *testing.T, measure Measure, params []Param, sigs [][]*Signature) *Ensemble {
	t.Helper()
	spec := BinSpec{Width: synthWidth, Bins: 64}
	var dbs []*Database
	for mi, p := range params {
		db := NewDatabase(Config{Param: p, Bins: spec, MinObservations: 1}, measure)
		for i, sig := range sigs[mi] {
			if err := db.Add(synthAddr(i), sig.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		dbs = append(dbs, db)
	}
	e, err := NewEnsembleFrom(dbs...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// naiveFused is the ensemble oracle for members that all enroll the
// same references: per member-0 reference, the mean of the members'
// naive Similarity values, summed in member order.
func naiveFused(e *Ensemble, c MultiCandidate) []Score {
	members := e.Members()
	var out []Score
	for _, addr := range members[0].Devices() {
		sum := 0.0
		for m, db := range members {
			sum += Similarity(c.Sigs[m], db.Signature(addr), db.Measure())
		}
		out = append(out, Score{Addr: addr, Sim: sum / float64(len(members))})
	}
	return out
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
			e := buildEnsemble(t, measure, params, sigs)
			ci := e.Compile()

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
				want := naiveFused(e, cand)
				got, _ := ci.Match(cand)
				sameScores(t, "Match", want, got)
				gb, gok := ci.Best(cand)
				sameBest(t, "fused", want, gb, gok)

				for _, k := range []int{1, 2, 5, ci.Len(), ci.Len() + 3} {
					sameScores(t, "TopKInto", exhaustiveTopK(want, k), ci.TopKInto(cand, k, &scratch))
					sameScores(t, "TopK", exhaustiveTopK(want, k), ci.TopK(cand, k))
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
	ci := buildEnsemble(t, MeasureCosine, params, sigs).Compile()

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
		next := 0
		ci.TopKAllStream(cands, 4, workers, func(i int, fused []Score) {
			if i != next {
				t.Fatalf("TopKAllStream emitted row %d, want %d", i, next)
			}
			next++
			sameScores(t, "TopKAllStream", want[i], fused)
		})
		if next != len(cands) {
			t.Fatalf("TopKAllStream emitted %d rows, want %d", next, len(cands))
		}
		full, perParam := ci.MatchAllWorkers(cands, workers)
		next = 0
		ci.MatchAllStream(cands, workers, func(i int, fused []Score, pp [][]Score) {
			if i != next {
				t.Fatalf("MatchAllStream emitted row %d, want %d", i, next)
			}
			next++
			sameScores(t, "MatchAllStream", full[i], fused)
			if len(pp) != len(perParam[i]) {
				t.Fatalf("MatchAllStream row %d: %d member rows, want %d", i, len(pp), len(perParam[i]))
			}
			for m := range pp {
				sameScores(t, "MatchAllStream member", perParam[i][m], pp[m])
			}
		})
		if next != len(cands) {
			t.Fatalf("MatchAllStream emitted %d rows, want %d", next, len(cands))
		}
	}
}
