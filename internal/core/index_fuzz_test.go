package core

import (
	"fmt"
	"math"
	"testing"

	"dot11fp/internal/dot11"
)

// FuzzIndexedMatch is the differential test of the compiled match
// kernel: the fuzz bytes decode into a small reference set and two
// candidates, and under all four measures
//
//   - every full similarity vector — MatchInto, MatchAllScratch, and the
//     fused and per-member rows of CompiledEnsemble.MatchAllScratch —
//     agrees bit for bit with the naive per-pair Similarity loop (fused:
//     the member mean);
//   - every selection — TopKInto, Best and Above, single and fused —
//     agrees bit for bit with the naive vector ranked stably (score
//     descending, insertion index ascending) or filtered by >=.
//
// Both hold for the references as built (dense) and for their binary
// round trip, which keeps them in cell form. The single candidates are
// also matched live: replayed observation by observation through a
// SenderTable (liveCandidates), as the engines accumulate them.
//
// One scratch serves every call of an input, across databases of
// different sizes, so residue left in the reusable buffers shows up as
// a mismatch.
//
// Input layout (a byte past the end reads as 0):
//
//	n-1 (mod fuzzRefs), then per reference: a clone byte (5 mod 6
//	clones the previous reference: a planted tie) and, unless cloned,
//	one signature per ensemble member; then two candidates, each a
//	presence byte (0 mod 5 is a nil candidate) and, if present, one
//	signature per member.
//
// A signature is one control byte per class of fuzzClasses: 0 mod 4
// absent, 1 mod 4 present but empty, otherwise 1+(c>>2)%4 (bin, count)
// cells follow. References never carry fuzzClasses' last class, so a
// candidate can hold a class no reference has.
func FuzzIndexedMatch(f *testing.F) {
	// Seed builders: a signature is a list of per-class encodings,
	// padded with absent classes to the decoder's class count.
	cells := func(pairs ...byte) []byte {
		return append([]byte{byte(2 + 4*(len(pairs)/2-1))}, pairs...)
	}
	absent, empty := []byte{0}, []byte{1}
	encode := func(lead byte, classes int, members [][][]byte) []byte {
		out := []byte{lead}
		for _, m := range members {
			for i := 0; i < classes; i++ {
				if i < len(m) {
					out = append(out, m[i]...)
				} else {
					out = append(out, absent...)
				}
			}
		}
		return out
	}
	ref := func(members ...[][]byte) []byte { return encode(0, len(fuzzClasses)-1, members) }
	cand := func(members ...[][]byte) []byte { return encode(1, len(fuzzClasses), members) }
	nilCand, clone := []byte{0}, []byte{5}
	input := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	a := [][]byte{cells(3, 2, 4, 1), cells(7, 3)}
	b := [][]byte{cells(3, 1), absent, cells(9, 2, 12, 4)}
	allEmpty := [][]byte{empty, empty, empty, empty}

	f.Add(input([]byte{2},
		ref(a, b), ref(b, a), ref(a, a),
		nilCand, nilCand))
	f.Add(input([]byte{1}, // empty classes on both sides
		ref([][]byte{empty, cells(3, 2)}, b), ref(a, [][]byte{cells(5, 1), empty}),
		cand([][]byte{empty, cells(3, 1)}, [][]byte{empty}), cand([][]byte{cells(3, 2), empty}, b)))
	f.Add(input([]byte{1}, // a candidate class no reference carries
		ref(a, b), ref(b, a),
		cand([][]byte{absent, absent, absent, absent, cells(3, 5)}, [][]byte{absent, absent, absent, absent, cells(9, 1)}),
		cand([][]byte{cells(3, 1), absent, absent, absent, cells(3, 5)}, b)))
	f.Add(input([]byte{2}, // a zero-norm reference: every class present but empty
		ref(a, b), ref(allEmpty, allEmpty), ref(b, b),
		cand(a, b), cand(allEmpty, [][]byte{empty})))
	f.Add(input([]byte{3}, // planted ties: clones of the first reference
		ref(a, b), clone, clone, ref(b, a),
		cand(a, b), cand(b, b)))
	f.Add(input([]byte{5}, // all-zero candidates: every reference ties at 0
		ref(b, a), ref(a, b), clone, ref(b, b), ref(a, a), ref(b, a),
		cand(allEmpty, allEmpty), cand([][]byte{absent, absent, absent, absent, cells(9, 3)}, [][]byte{empty})))
	f.Add(input([]byte{4}, // ties at a positive score behind a zero-score block
		ref([][]byte{cells(40, 1)}, b), ref([][]byte{cells(41, 1)}, b), ref(a, a), clone, clone,
		cand(a, b), cand([][]byte{cells(3, 2, 40, 1)}, a)))
	full := [][]byte{cells(1, 3, 2, 5, 40, 2, 63, 9), cells(0, 1, 1, 1, 2, 1, 3, 1), cells(9, 4), cells(8, 1, 9, 2, 10, 3), cells(62, 1, 63, 2)}
	f.Add(input([]byte{2}, // live candidates of four cells a class
		ref(a, b), ref(b, a), ref(full[:4], full[1:]),
		cand(full, full), cand(a, full)))
	f.Add(input([]byte{1}, // repeated bins merge into one cell
		ref(a, b), ref(b, b),
		cand([][]byte{cells(5, 3, 5, 4, 5, 1), empty, cells(7, 1, 7, 1)}, b), cand(b, a)))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		spec := BinSpec{Width: synthWidth, Bins: 64}
		params := []Param{ParamInterArrival, ParamSize}
		refClasses := fuzzClasses[:len(fuzzClasses)-1]
		n := 1 + int(d.next())%fuzzRefs
		sigs := make([][]*Signature, len(params))
		for i := 0; i < n; i++ {
			clone := d.next()%6 == 5 && i > 0
			for m, p := range params {
				if clone {
					sigs[m] = append(sigs[m], sigs[m][i-1].Clone())
				} else {
					sigs[m] = append(sigs[m], d.sig(p, spec, refClasses))
				}
			}
		}
		var cands []MultiCandidate
		for i := 0; i < 2; i++ {
			c := MultiCandidate{Addr: synthAddr(1000 + i), Sigs: make([]*Signature, len(params))}
			if d.next()%5 != 0 {
				for m, p := range params {
					c.Sigs[m] = d.sig(p, spec, fuzzClasses)
				}
			}
			cands = append(cands, c)
		}
		single := make([]Candidate, len(cands))
		for i, c := range cands {
			single[i] = Candidate{Addr: c.Addr, Sig: c.Sigs[0]}
		}

		live := liveCandidates(t, spec, single)

		var scratch MatchScratch
		var es EnsembleScratch
		for _, measure := range allMeasures {
			// The naive per-pair targets: single[i] against every member-0
			// reference, and cands[i] per member and fused (the member mean).
			naive := make([][]Score, len(single))
			naiveMember := make([][][]Score, len(cands))
			naiveFused := make([][]Score, len(cands))
			for i, c := range single {
				naive[i] = make([]Score, n)
				for r, ref := range sigs[0] {
					naive[i][r] = Score{Addr: synthAddr(r), Sim: Similarity(c.Sig, ref, measure)}
				}
			}
			for i, c := range cands {
				naiveMember[i] = make([][]Score, len(params))
				naiveFused[i] = make([]Score, n)
				for r := range naiveFused[i] {
					sum := 0.0
					for m := range params {
						sim := Similarity(c.Sigs[m], sigs[m][r], measure)
						naiveMember[i][m] = append(naiveMember[i][m], Score{Addr: synthAddr(r), Sim: sim})
						sum += sim
					}
					naiveFused[i][r] = Score{Addr: synthAddr(r), Sim: sum / float64(len(params))}
				}
			}

			// Every check runs over the dense references and over their
			// binary round trip, which holds them in cell form.
			forms := [...]string{"dense", "cells"}
			refs := buildRefs(t, measure, sigs[0])
			for f, db := range []*Database{refs, reloaded(t, refs)} {
				label := measure.String() + " " + forms[f]
				cdb := db.Compile()
				for i, c := range single {
					sameScores(t, label+" MatchInto", naive[i], cdb.MatchInto(c.Sig, &scratch))
					checkSelect(t, label, naive[i], func(k int) []Score { return cdb.TopKInto(c.Sig, k, &scratch) },
						func() (Score, bool) { return cdb.Best(c.Sig) })
					for _, thr := range naive[i] {
						sameScores(t, label+" Above", filterAbove(naive[i], thr.Sim), cdb.Above(c.Sig, thr.Sim))
					}
				}
				for i, row := range cdb.MatchAllScratch(single, &scratch) {
					sameScores(t, label+" MatchAllScratch", naive[i], row)
				}
				for i, sig := range live {
					if sig != nil {
						sameScores(t, label+" live MatchInto", naive[i], cdb.MatchInto(sig, &scratch))
						checkSelect(t, label+" live", naive[i], func(k int) []Score { return cdb.TopKInto(sig, k, &scratch) },
							func() (Score, bool) { return cdb.Best(sig) })
					}
				}
			}

			ens := buildEnsemble(t, measure, params, sigs)
			for f, e := range []*Ensemble{ens, reloadedEnsemble(t, ens)} {
				label := measure.String() + " " + forms[f] + " fused"
				ce := e.Compile()
				fused, member := ce.MatchAllScratch(cands, &es)
				for i := range cands {
					sameScores(t, label, naiveFused[i], fused[i])
					for m := range params {
						sameScores(t, label+" member", naiveMember[i][m], member[i][m])
					}
				}
				for i, c := range cands {
					got, _ := ce.MatchInto(c, &es)
					sameScores(t, label+" MatchInto", naiveFused[i], got)
					checkSelect(t, label, naiveFused[i], func(k int) []Score { return ce.TopKInto(c, k, &es) },
						func() (Score, bool) { return ce.Best(c) })
				}
			}
		}
	})
}

// checkSelect pins a TopKInto/Best pair against the stable ranking of
// the naive similarity vector: every k from 1 past the reference count,
// and Best as the top-1 entry with ok reporting a non-negative score.
func checkSelect(t *testing.T, label string, naive []Score, topK func(k int) []Score, best func() (Score, bool)) {
	t.Helper()
	for k := 1; k <= len(naive)+1; k++ {
		sameScores(t, fmt.Sprintf("%s TopK(%d)", label, k), exhaustiveTopK(naive, k), topK(k))
	}
	got, ok := best()
	sameBest(t, label, naive, got, ok)
}

// fuzzRefs caps FuzzIndexedMatch's reference count.
const fuzzRefs = 12

// fuzzClasses are the frame classes FuzzIndexedMatch decodes; the last
// is reserved for candidates.
var fuzzClasses = append(append([]dot11.Class(nil), propClasses...), dot11.ClassProbeReq)

// fuzzBytes is FuzzIndexedMatch's input cursor; reading past the end
// yields zeros.
type fuzzBytes []byte

func (d *fuzzBytes) next() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

// sig decodes one signature over classes (layout in FuzzIndexedMatch).
func (d *fuzzBytes) sig(p Param, spec BinSpec, classes []dot11.Class) *Signature {
	s := NewSignature(p, spec)
	for _, class := range classes {
		c := d.next()
		switch c % 4 {
		case 0:
			continue
		case 1:
			synthAdd(s, class, 0, 0)
			continue
		}
		for k := 0; k < 1+int(c>>2)%4; k++ {
			bin := int(d.next()) % spec.Bins
			synthAdd(s, class, bin, 1+int(d.next())%16)
		}
	}
	return s
}

// liveCandidates replays each candidate's counts through a SenderTable
// as single observations, bins descending so every new cell lands at
// the front of its row, and returns the drained signatures: nil where
// the candidate is nil or holds no observation (the table drops it).
// A first window under a one-sender cap evicts every sender, so the
// returned rows grow from the table's recycled cell buffers.
func liveCandidates(t *testing.T, spec BinSpec, cands []Candidate) []*Signature {
	table := NewSenderTable(Config{Param: ParamInterArrival, Bins: spec, MinObservations: 1}, SenderLimits{MaxSenders: 1})
	now := int64(0)
	replay := func() {
		for i, c := range cands {
			if c.Sig == nil {
				continue
			}
			for _, class := range c.Sig.Classes() {
				r := c.Sig.row(class)
				if r.total == 0 {
					now++
					table.Observe(synthAddr(i), class, math.NaN(), now) // present, empty
				}
				for k := len(r.counts) - 1; k >= 0; k-- {
					j, n := r.cell(k)
					for range n {
						now++
						table.Observe(synthAddr(i), class, (float64(j)+0.5)*spec.Width, now)
					}
				}
			}
		}
	}
	var res WindowResult
	replay()
	table.Drain(&res)
	table.SetLimits(SenderLimits{})
	res = WindowResult{}
	replay()
	table.Drain(&res)
	live := make([]*Signature, len(cands))
	for _, c := range res.Candidates {
		live[c.Addr[4]] = c.Sig
	}
	for i, c := range cands {
		if c.Sig != nil && c.Sig.Observations() != 0 && (live[i] == nil || live[i].Observations() != c.Sig.Observations()) {
			t.Fatalf("candidate %d: the live replay lost observations", i)
		}
	}
	return live
}
