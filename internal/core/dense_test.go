package core

import (
	"math"
	"testing"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// denseDB is the dense compiled kernel the postings scatter replaced:
// per class an N×bins row matrix, float64 counts for cosine (exact, and
// bit-identical to the count-domain CosineCounts) or frequencies for
// the other measures, scanned in full for every candidate. It is the
// exhaustive row of BenchmarkMatchAllScale, the baseline CI's "Indexed
// matching gate" holds the scatter's top-k against, and TestIndexBitIdentical
// pins it to the naive Similarity loop so the baseline stays honest.
type denseDB struct {
	measure Measure
	addrs   []dot11.Addr
	bins    int
	classes [dot11.NumClasses]denseClass
}

type denseClass struct {
	present bool      // at least one reference carries this class
	has     []bool    // per reference: class present in its signature
	rows    []float64 // N×bins row-major matrix
	norms   []float64 // per reference: Euclidean norm of its count row (cosine only)
	weights []float64 // per reference: weight^ftype (Definition 1)
}

// compileDense freezes db's references into dense rows.
func compileDense(db *Database) *denseDB {
	n := len(db.order)
	cosine := db.measure.isCosine()
	d := &denseDB{measure: db.measure, addrs: append([]dot11.Addr(nil), db.order...), bins: db.cfg.Bins.Bins}
	for ci := range d.classes {
		class := dot11.Class(ci)
		cc := &d.classes[ci]
		for r, addr := range db.order {
			sig := db.refs[addr]
			h := sig.Hist(class)
			if h == nil {
				continue
			}
			if !cc.present {
				cc.present = true
				cc.has = make([]bool, n)
				cc.weights = make([]float64, n)
				cc.rows = make([]float64, n*d.bins)
				if cosine {
					cc.norms = make([]float64, n)
				}
			}
			cc.has[r] = true
			cc.weights[r] = sig.Weight(class)
			if cosine {
				cc.norms[r] = histogram.CountNorm(h.CountsView())
			}
			row := cc.rows[r*d.bins : (r+1)*d.bins]
			if cosine {
				for i, v := range h.CountsView() {
					row[i] = float64(v)
				}
			} else {
				h.AppendFreqs(row[:0:d.bins])
			}
		}
	}
	return d
}

// simsInto computes the candidate's similarity against every reference
// into scratch.sims, scanning every row of every class the candidate
// shares.
func (d *denseDB) simsInto(candidate *Signature, scratch *MatchScratch) []float64 {
	n := len(d.addrs)
	if cap(scratch.sims) < n {
		scratch.sims = make([]float64, n)
	}
	sims := scratch.sims[:n]
	clear(sims)
	if candidate == nil {
		return sims
	}
	// Ascending class order mirrors Signature.Classes(), so every
	// reference accumulates its per-class contributions in the same
	// order as the naive Similarity loop.
	for ci := range d.classes {
		cc := &d.classes[ci]
		if !cc.present {
			continue
		}
		ch := candidate.Hist(dot11.Class(ci))
		if ch == nil || ch.Bins() != d.bins {
			// Absent from the candidate, or a shape mismatch on which
			// every similarity measure evaluates to zero.
			continue
		}
		switch d.measure {
		case MeasureIntersection, MeasureBhattacharyya, MeasureL1:
			cf := ch.AppendFreqs(scratch.freqs[:0])
			scratch.freqs = cf // keep the grown buffer for the next class
			d.accumulate(sims, cc, cf, measureFn(d.measure))
		default:
			// Count domain, like the naive cosine path. The candidate
			// counts are converted to float64 once (exact, so the bits
			// cannot differ from converting inside the dot product) and
			// the candidate norm is hoisted out of the reference loop.
			cf := scratch.freqs[:0]
			for _, v := range ch.CountsView() {
				cf = append(cf, float64(v))
			}
			scratch.freqs = cf
			cn := histogram.CountNorm(ch.CountsView())
			for r := range sims {
				if !cc.has[r] {
					continue
				}
				row := cc.rows[r*d.bins : (r+1)*d.bins]
				sims[r] += cc.weights[r] * cosineNormed(cf, row, cn, cc.norms[r])
			}
		}
	}
	return sims
}

// accumulate applies a generic frequency-domain measure across every
// reference row that carries the class.
func (d *denseDB) accumulate(sims []float64, cc *denseClass, cf []float64, f func(a, b []float64) float64) {
	for r := range sims {
		if !cc.has[r] {
			continue
		}
		sims[r] += cc.weights[r] * f(cf, cc.rows[r*d.bins:(r+1)*d.bins])
	}
}

// matchAll is CompiledDB.MatchAllScratch over the dense rows: one
// backing allocation for the batch, each row written from simsInto.
func (d *denseDB) matchAll(cands []Candidate, scratch *MatchScratch) [][]Score {
	n := len(d.addrs)
	out := make([][]Score, len(cands))
	backing := make([]Score, len(cands)*n)
	for i := range cands {
		row := backing[i*n : (i+1)*n : (i+1)*n]
		for r, sim := range d.simsInto(cands[i].Sig, scratch) {
			row[r] = Score{Addr: d.addrs[r], Sim: sim}
		}
		out[i] = row
	}
	return out
}

// cosineNormed is histogram.Cosine with both Euclidean norms
// precomputed (na = ‖a‖, nb = ‖b‖) — the dense cosine kernel. With
// identical accumulation order it is bit-identical to Cosine. Zero
// norms yield 0.
func cosineNormed(a, b []float64, na, nb float64) float64 {
	if len(a) != len(b) || na == 0 || nb == 0 {
		return 0
	}
	return dot(a, b) / (na * nb)
}

// dot returns the dot product Σ a_j·b_j of two vectors of equal length.
// The loop is unrolled by four with the sum still accumulated in index
// order, so the result is bit-identical to the plain loop; the plain
// loop's speed depends on where the linker places it, 10–20% slower
// whenever it straddles a 64-byte boundary (EXPERIMENTS.md, "Decode at
// memory speed"), which would make the gate's baseline swing between
// unrelated builds.
func dot(a, b []float64) float64 {
	var sum float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		sum += x[0] * y[0]
		sum += x[1] * y[1]
		sum += x[2] * y[2]
		sum += x[3] * y[3]
	}
	for ; i < len(a); i++ {
		sum += a[i] * b[i]
	}
	return sum
}

// norm returns the Euclidean norm ‖a‖ of a frequency vector.
func norm(a []float64) float64 {
	var n float64
	for _, v := range a {
		n += v * v
	}
	return math.Sqrt(n)
}

// TestDotBitIdenticalToPlainLoop pins the unrolled dot to the plain
// index-order loop bit for bit, across every length residue mod 4.
func TestDotBitIdenticalToPlainLoop(t *testing.T) {
	t.Parallel()
	for n := 0; n <= 67; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = 1 / float64(i+3)
			b[i] = math.Sqrt(float64(7*i + 1))
		}
		var want float64
		for i := range a {
			want += a[i] * b[i]
		}
		if got := dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: dot = %v, plain loop %v", n, got, want)
		}
	}
}

// TestCosineNormedBitIdenticalToCosine pins the dense cosine kernel to
// histogram.Cosine over histograms covering overlap, disjoint support,
// emptiness and clamping.
func TestCosineNormedBitIdenticalToCosine(t *testing.T) {
	t.Parallel()
	a, b, c, empty := histogram.New(64, 10), histogram.New(64, 10), histogram.New(64, 10), histogram.New(64, 10)
	for i := 0; i < 500; i++ {
		a.Add(float64((i * 13) % 640))
		b.Add(float64((i*7)%320 + 100))
		c.Add(float64(i % 40)) // narrow support
	}
	c.AddN(5_000, 25) // clamped into the top bin
	hs := []*histogram.Histogram{a, b, c, empty}
	for i, ha := range hs {
		for j, hb := range hs {
			fa, fb := ha.Freqs(), hb.Freqs()
			want := histogram.Cosine(fa, fb)
			got := cosineNormed(fa, fb, norm(fa), norm(fb))
			if got != want { // exact: same operations in the same order
				t.Errorf("pair (%d,%d): cosineNormed %v != Cosine %v", i, j, got, want)
			}
		}
	}
}

// measureFn returns the dense frequency-vector form of a measure.
func measureFn(m Measure) func(a, b []float64) float64 {
	switch m {
	case MeasureIntersection:
		return histogram.Intersection
	case MeasureBhattacharyya:
		return histogram.Bhattacharyya
	case MeasureL1:
		return histogram.L1
	default:
		return histogram.Cosine
	}
}
