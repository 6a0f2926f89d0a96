package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// FuzzSparseSignature is the differential test of the sparse class
// rows: the fuzz bytes decode into a stream of (sender, class, value)
// observations fed through a SenderTable, plus merges applied to the
// drained signatures, and every result is checked against denseSig, a
// dense accumulator built the way signatures were before the rows
// went sparse (one histogram.Histogram per class, Merge for merges):
//
//   - per class: presence, the row invariants, per-bin counts, totals
//     and dropped counts; per signature: Observations, Classes, Weight;
//   - SaveBinary bytes against the same references held as dense rows;
//   - Similarity, MatchInto and TopKInto score bits against the naive
//     per-pair loop over the dense histograms (histogram.CosineCounts
//     for cosine, the frequency-vector measure otherwise), for
//     databases of the sparse and of the dense references.
//
// The stream runs twice: first with the table capped at one sender,
// so every switch of sender evicts one and hands its cell buffers to
// the table's pool, then unbounded, so the checked window grows its
// rows from recycled buffers.
//
// Input layout: 3-byte ops (a, b, c); sender (a>>4)%sparseSenders,
// class sparseClasses[b%3], and by a%16:
//
//	0-5    one value, bin c·(1+a%3) (the top ones fold into the last bin
//	       or the log tail)
//	6, 7   NaN, a negative value (dropped)
//	8      +Inf (the top bin)
//	9      a run of 70 consecutive bins from c: past cellCutoff
//	10     after the stream: merge the sender into itself (doubling)
//	11     after the stream: merge sender b%sparseSenders into it
//	12-15  one value in bins 0-25 (c/10): repeated bins
//
// Merges stop growing a signature past 2^50 observations, so counts
// cross cellMax (dense) but never overflow.
func FuzzSparseSignature(f *testing.F) {
	op := func(a, b, c byte) []byte { return []byte{a, b, c} }
	ops := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	f.Add(ops(op(0x00, 0, 3), op(0x01, 0, 3), op(0x10, 1, 7), op(0x16, 1, 0),
		op(0x27, 2, 9), op(0x0c, 0, 40), op(0x0d, 0, 41), op(0x12, 0, 200), op(0x08, 2, 0)))
	f.Add(ops(op(0x09, 0, 5), op(0x00, 0, 2), op(0x00, 0, 80), op(0x19, 1, 0),
		op(0x1a, 0, 0), op(0x2b, 0, 0), op(0x0b, 1, 0)))
	doubling := []byte{}
	for range 45 {
		doubling = append(doubling, op(0x0a, 0, 0)...)
	}
	f.Add(ops(op(0x00, 0, 1), op(0x00, 0, 1), op(0x00, 0, 2), op(0x02, 0, 9),
		op(0x10, 0, 1), op(0x10, 0, 3), op(0x13, 0, 4), doubling, op(0x1b, 0, 0), op(0x1a, 0, 0)))
	var churn []byte
	for i := range 40 {
		churn = append(churn, op(byte(i%3)<<4|byte(i%6), byte(i), byte(7*i))...)
	}
	f.Add(ops(churn, op(0x29, 2, 30), op(0x2a, 0, 0)))
	// A norm summed out of bin order rounds differently: a count of 2^30
	// in bin 1 and of 10 in bins 2-71 sum their squares to 2^60 in bin
	// order (each +100 is below half an ulp) but to 2^60 + 7168 from the
	// top down.
	rounding := op(0x00, 0, 1)
	for range 30 {
		rounding = append(rounding, op(0x0a, 0, 0)...)
	}
	for range 10 {
		rounding = append(rounding, op(0x19, 0, 2)...)
	}
	f.Add(ops(rounding, op(0x1b, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Param: ParamInterArrival, Bins: sparseSpec, MinObservations: 1}
		table := NewSenderTable(cfg, SenderLimits{MaxSenders: 1})
		var acc [sparseSenders]denseSig
		type merge struct{ into, from int }
		var merges []merge
		feed := func(record bool) {
			d, now := fuzzBytes(data), int64(0)
			for len(d) > 0 {
				a, b, c := d.next(), d.next(), d.next()
				s, class := int(a>>4)%sparseSenders, sparseClasses[int(b)%len(sparseClasses)]
				obs := func(v float64) {
					now++
					table.Observe(synthAddr(s), class, v, now)
					if record {
						acc[s].add(class, v)
					}
				}
				switch k := a % 16; {
				case k < 6:
					obs((float64(c)*float64(1+k%3) + 0.5) * sparseSpec.Width)
				case k == 6:
					obs(math.NaN())
				case k == 7:
					obs(-1 - float64(c))
				case k == 8:
					obs(math.Inf(1))
				case k == 9:
					for j := range 70 {
						obs((float64(c) + float64(j) + 0.5) * sparseSpec.Width)
					}
				case k == 10 && record:
					merges = append(merges, merge{s, s})
				case k == 11 && record:
					merges = append(merges, merge{s, int(b) % sparseSenders})
				case k >= 12:
					obs(float64(c) / 10 * sparseSpec.Width)
				}
			}
		}
		var res WindowResult
		feed(false)
		table.Drain(&res)
		table.SetLimits(SenderLimits{})
		res = WindowResult{}
		feed(true)
		table.Drain(&res)

		var sigs [sparseSenders]*Signature
		for _, c := range res.Candidates {
			sigs[c.Addr[4]] = c.Sig
		}
		for s := range sigs {
			if sigs[s] == nil {
				// Dropped: no observation landed in a bin.
				if acc[s].total != 0 {
					t.Fatalf("sender %d dropped with %d observations", s, acc[s].total)
				}
				sigs[s], acc[s] = NewSignature(cfg.Param, cfg.Bins), denseSig{}
			}
		}
		for _, m := range merges {
			if sigs[m.into].total+sigs[m.from].total > 1<<50 {
				continue
			}
			if err := sigs[m.into].Merge(sigs[m.from]); err != nil {
				t.Fatal(err)
			}
			acc[m.into].merge(&acc[m.from])
		}

		for s, sig := range sigs {
			checkSparse(t, fmt.Sprintf("sender %d", s), sig, &acc[s])
		}
		refs := func(measure Measure, dense bool) *Database {
			db := NewDatabase(cfg, measure)
			for s, sig := range sigs {
				if dense {
					sig = acc[s].sig()
				}
				if err := db.Add(synthAddr(s), sig); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}
		if !bytes.Equal(savedBinary(t, refs(MeasureCosine, false)), savedBinary(t, refs(MeasureCosine, true))) {
			t.Fatal("SaveBinary bytes differ from the dense references'")
		}

		var scratch MatchScratch
		for _, measure := range allMeasures {
			for f, form := range [...]string{"sparse", "dense"} {
				cdb := refs(measure, f == 1).Compile()
				for s, cand := range sigs {
					label := fmt.Sprintf("%v %s candidate %d", measure, form, s)
					naive := make([]Score, len(sigs))
					for r := range sigs {
						naive[r] = Score{Addr: synthAddr(r), Sim: acc[s].similarity(&acc[r], measure)}
						if got := Similarity(cand, sigs[r], measure); math.Float64bits(got) != math.Float64bits(naive[r].Sim) {
							t.Fatalf("%s: Similarity to %d is %x, naive %x", label, r, math.Float64bits(got), math.Float64bits(naive[r].Sim))
						}
					}
					sameScores(t, label+" MatchInto", naive, cdb.MatchInto(cand, &scratch))
					for k := 1; k <= len(naive)+1; k++ {
						sameScores(t, fmt.Sprintf("%s TopK(%d)", label, k), exhaustiveTopK(naive, k), cdb.TopKInto(cand, k, &scratch))
					}
				}
			}
		}
	})
}

// sparseSenders, sparseSpec and sparseClasses shape FuzzSparseSignature's
// stream: 300 bins, linear to 2 ms and logarithmic past it.
const sparseSenders = 3

var (
	sparseSpec    = BinSpec{Width: 10, Bins: 300, LogKnee: 2000}
	sparseClasses = []dot11.Class{dot11.ClassData, dot11.ClassProbeReq, dot11.ClassNull}
)

// denseSig accumulates a signature densely: one histogram per class.
type denseSig struct {
	hists [dot11.NumClasses]*histogram.Histogram
	total uint64
}

func (d *denseSig) hist(class int) *histogram.Histogram {
	if d.hists[class] == nil {
		d.hists[class] = histogram.New(sparseSpec.Bins, sparseSpec.Width)
	}
	return d.hists[class]
}

func (d *denseSig) add(class dot11.Class, v float64) {
	h := d.hist(int(class))
	before := h.Total()
	h.Add(sparseSpec.Transform(v))
	d.total += h.Total() - before
}

func (d *denseSig) merge(o *denseSig) {
	for c, oh := range o.hists {
		if oh != nil {
			d.hist(c).Merge(oh) // a self-merge doubles in place
		}
	}
	d.total += o.total
}

func (d *denseSig) weight(class int) float64 {
	if d.hists[class] == nil || d.total == 0 {
		return 0
	}
	return float64(d.hists[class].Total()) / float64(d.total)
}

// similarity is the naive per-pair loop over the dense histograms.
func (d *denseSig) similarity(ref *denseSig, m Measure) float64 {
	sim := 0.0
	for c, ch := range d.hists {
		rh := ref.hists[c]
		if ch == nil || rh == nil {
			continue
		}
		if m.isCosine() {
			sim += ref.weight(c) * histogram.CosineCounts(ch.CountsView(), rh.CountsView())
		} else {
			sim += ref.weight(c) * measureFn(m)(ch.Freqs(), rh.Freqs())
		}
	}
	return sim
}

// sig returns the accumulated signature held as dense rows.
func (d *denseSig) sig() *Signature {
	s := NewSignature(ParamInterArrival, sparseSpec)
	for c, h := range d.hists {
		if h != nil {
			s.setRow(dot11.Class(c), classRow{counts: h.Counts(), total: h.Total(), dropped: h.Dropped(), form: rowDense})
		}
	}
	return s
}

// checkSparse asserts a signature holds exactly the dense accumulator's counts.
func checkSparse(t *testing.T, label string, sig *Signature, want *denseSig) {
	t.Helper()
	if sig.Observations() != want.total {
		t.Fatalf("%s: %d observations, want %d", label, sig.Observations(), want.total)
	}
	var classes []dot11.Class
	for c, h := range want.hists {
		class := dot11.Class(c)
		r := sig.row(class)
		if (r != nil) != (h != nil) {
			t.Fatalf("%s class %v: present %v, want %v", label, class, r != nil, h != nil)
		}
		if h == nil {
			continue
		}
		classes = append(classes, class)
		if err := r.check(sparseSpec.Bins); err != nil {
			t.Fatalf("%s class %v: %v", label, class, err)
		}
		if r.total != h.Total() || r.dropped != h.Dropped() {
			t.Fatalf("%s class %v: total/dropped %d/%d, want %d/%d", label, class, r.total, r.dropped, h.Total(), h.Dropped())
		}
		if !slices.Equal(r.dense(sparseSpec.Bins), h.CountsView()) {
			t.Fatalf("%s class %v: counts differ from the dense accumulator's", label, class)
		}
		if got := sig.Weight(class); math.Float64bits(got) != math.Float64bits(want.weight(c)) {
			t.Fatalf("%s class %v: weight %v, want %v", label, class, got, want.weight(c))
		}
	}
	if !slices.Equal(sig.Classes(), classes) {
		t.Fatalf("%s: classes %v, want %v", label, sig.Classes(), classes)
	}
}
