package core

import (
	"math"

	"dot11fp/internal/dot11"
)

// This file implements the compiled database's match kernel and the
// sparse layout it reads. Compile stores each frame class's reference
// histograms as an inverted index over the non-empty fine bins — or, for
// the L1 measure, as CSR sparse rows. Reference histograms are ~13×
// sparse (the binary codec's varint stream demonstrates the same), so
// neither stores the zero cells a dense N×bins matrix would.
//
// The similarity vector (simsInto) reads the inverted index as a
// postings scatter. Per class it walks only the candidate's non-zero
// bins; for each, it walks the bin's postings and adds the term
// (product, min or √ of the candidate value and the posting's stored
// row value, postVal) into a per-reference accumulator in the
// MatchScratch. The work is the candidate's shared support, not every
// reference's row. It stays bit-identical to the naive Similarity loop:
// a reference receives exactly its non-zero terms, in ascending bin
// order, and every term the scatter never visits is an exact +0 in the
// full-row sum (a bin the candidate lacks), which cannot change a sum
// of non-negative terms. The candidate values are float64 counts for
// cosine (exact, so bit-identical to the count-domain CosineCounts) and
// float64(count)/total otherwise, as in AppendFreqs, and each
// reference's sum is folded into its score by the same weighting and
// normalisation. The L1 measure's disjoint scores are not exactly zero
// (frequency sums round), so it instead merges the union of both
// supports over every reference sharing a class (the CSR rows and
// classRefs) — same guarantee.
//
// TopK, Best and Above select from that vector (see selectTop), so they
// are bit-identical to ranking or filtering the full vector by
// construction.

// IndexStats describes a compiled snapshot's sparse match layout, for
// Stats endpoints and /metrics.
type IndexStats struct {
	// Enabled is true for every compiled snapshot; the key stays for
	// API stability.
	Enabled bool `json:"enabled"`
	// References is the number of indexed reference rows.
	References int `json:"references,omitempty"`
	// Classes is the number of frame classes carrying index data.
	Classes int `json:"classes,omitempty"`
	// Entries is the number of non-zero (reference, bin) cells stored.
	Entries int64 `json:"entries,omitempty"`
	// Postings is the number of inverted-index entries.
	Postings int64 `json:"postings,omitempty"`
	// IndexBytes approximates the index's memory footprint.
	IndexBytes int64 `json:"index_bytes,omitempty"`
	// DenseBytes is what dense N×bins row matrices would occupy; the
	// ratio to IndexBytes is the realised sparsity.
	DenseBytes int64 `json:"dense_bytes,omitempty"`
}

// compileClass freezes one frame class of the references' signatures
// (sigs, in reference order) into c: the weights and norms plus the
// layout the measure reads — the postings, or the CSR rows for L1 — in
// two scans of the non-zero cells, a sizing scan and a filling one, so
// every slice is allocated once at its final size (the snapshot is
// rebuilt on each reference swap), cells and dense rows alike. A class
// no reference carries stays the zero compiledClass.
func (c *CompiledDB) compileClass(sigs []*Signature, class dot11.Class) {
	n := len(sigs)
	cosine := c.measure.isCosine()
	l1 := c.measure == MeasureL1
	cc := &c.classes[class]
	// Sizing scan: carriers, non-zero cells, and postings per bin.
	carriers, entries := 0, 0
	var binRefs []int32
	if !l1 {
		binRefs = make([]int32, c.bins)
	}
	for _, sig := range sigs {
		row := sig.row(class)
		if row == nil {
			continue
		}
		carriers++
		for k := range row.counts {
			if j, cnt := row.cell(k); cnt != 0 {
				entries++
				if !l1 {
					binRefs[j]++
				}
			}
		}
	}
	if carriers == 0 {
		return
	}
	cc.weights = make([]float64, n)
	if cosine {
		cc.norms = make([]float64, n)
	}
	var fill []int32 // each bin's next free posting
	if l1 {
		cc.rowStart = make([]int32, n+1)
		cc.rowBin = make([]int32, 0, entries)
		cc.rowVal = make([]float64, 0, entries)
		cc.classRefs = make([]int32, 0, carriers)
	} else {
		cc.postStart = make([]int32, c.bins+1)
		var total int32
		for j, cnt := range binRefs {
			cc.postStart[j] = total
			total += cnt
		}
		cc.postStart[c.bins] = total
		cc.postRef = make([]int32, total)
		cc.postVal = make([]float64, total)
		fill = binRefs
		copy(fill, cc.postStart[:c.bins])
	}
	// Filling scan, ascending reference order, so every bin's postings
	// come out ascending.
	for r, sig := range sigs {
		if l1 {
			cc.rowStart[r] = int32(len(cc.rowBin))
		}
		row := sig.row(class)
		if row == nil {
			continue
		}
		cc.weights[r] = sig.Weight(class)
		if l1 {
			cc.classRefs = append(cc.classRefs, int32(r))
		}
		total := float64(row.total)
		// The cosine norm sums the squares of the non-zero cells only:
		// each skipped cell adds an exact +0.0 to a non-negative sum, so
		// the bits equal histogram.CountNorm's dense sum.
		var norm float64
		for k := range row.counts {
			j, cnt := row.cell(k)
			if cnt == 0 {
				continue
			}
			// The row value: the float64 count for cosine,
			// float64(count)/total (as AppendFreqs computes it) otherwise.
			v := float64(cnt)
			if cosine {
				norm += v * v
			} else {
				v /= total
			}
			if l1 {
				cc.rowBin = append(cc.rowBin, int32(j))
				cc.rowVal = append(cc.rowVal, v)
			} else {
				cc.postRef[fill[j]] = int32(r)
				cc.postVal[fill[j]] = v
				fill[j]++
			}
		}
		if cosine {
			cc.norms[r] = math.Sqrt(norm)
		}
	}
	if l1 {
		cc.rowStart[n] = int32(len(cc.rowBin))
	}
	st := &c.stats
	st.Classes++
	st.Entries += int64(entries)
	st.Postings += int64(len(cc.postRef))
	st.IndexBytes += int64(len(cc.rowStart)+len(cc.rowBin)+len(cc.classRefs)+len(cc.postStart)+len(cc.postRef))*4 +
		int64(len(cc.rowVal)+len(cc.postVal))*8
	st.DenseBytes += int64(n) * int64(c.bins) * 8
}

// l1Sparse evaluates 1 − ½·Σ|a_j − b_j| over the merged supports of the
// candidate (frequency cf[k] at bin nz[k]) and a reference CSR row. Bins
// where both sides are zero contribute exact +0 to the full-row sum and
// are skipped; one-sided bins reduce to the surviving value (|x−0| ≡ x
// bit-for-bit for the non-negative frequencies involved).
func l1Sparse(cf []float64, nz []int32, rowBin []int32, rowVal []float64) float64 {
	d := 0.0
	i, k := 0, 0
	for i < len(rowBin) && k < len(nz) {
		rb, cb := rowBin[i], nz[k]
		switch {
		case rb == cb:
			d += math.Abs(cf[k] - rowVal[i])
			i++
			k++
		case rb < cb:
			d += rowVal[i]
			i++
		default:
			d += cf[k]
			k++
		}
	}
	for ; i < len(rowBin); i++ {
		d += rowVal[i]
	}
	for ; k < len(nz); k++ {
		d += cf[k]
	}
	return 1 - d/2
}

// simsInto computes the candidate's similarity against every reference
// into scratch.sims and returns it (length Len(), valid until the
// scratch's next use), by the postings scatter described at the top of
// this file. It is the one match kernel: the full vector, the top-k
// selections and the fused ensemble vector all read its output.
func (c *CompiledDB) simsInto(candidate *Signature, scratch *MatchScratch) []float64 {
	n := len(c.addrs)
	if cap(scratch.sims) < n {
		scratch.sims = make([]float64, n)
	}
	sims := scratch.sims[:n]
	clear(sims)
	if candidate == nil {
		return sims
	}
	if cap(scratch.acc) < n {
		scratch.acc = make([]float64, n)
	}
	acc := scratch.acc[:n]
	// Ascending class order mirrors Signature.Classes(), so every
	// reference accumulates its per-class contributions in the same
	// order as the naive Similarity loop.
	for ci := range c.classes {
		cc := &c.classes[ci]
		if cc.weights == nil {
			continue
		}
		row := candidate.row(dot11.Class(ci))
		if row == nil || candidate.bins.Bins != c.bins {
			// Absent from the candidate, or a shape mismatch on which
			// every similarity measure evaluates to zero.
			continue
		}
		if c.measure == MeasureL1 {
			// The candidate's support and frequencies, as AppendFreqs
			// computes them.
			nz, cf := scratch.l1nz[:0], scratch.freqs[:0]
			total := float64(row.total)
			for k := range row.counts {
				if j, v := row.cell(k); v != 0 {
					nz, cf = append(nz, int32(j)), append(cf, float64(v)/total)
				}
			}
			scratch.l1nz, scratch.freqs = nz, cf
			for _, r := range cc.classRefs {
				start, end := cc.rowStart[r], cc.rowStart[r+1]
				sims[r] += cc.weights[r] * l1Sparse(cf, nz, cc.rowBin[start:end], cc.rowVal[start:end])
			}
			continue
		}
		var cn, total float64
		if c.measure.isCosine() {
			if cn = row.norm(); cn == 0 {
				continue // the cosine is exactly 0 for every reference
			}
		} else {
			if row.total == 0 {
				continue // all-zero frequencies: every term is exactly 0
			}
			total = float64(row.total)
		}
		// Cleared per class rather than kept zero across calls, so a
		// recovered panic mid-scatter cannot leak partial sums into the
		// next match through a long-lived scratch.
		clear(acc)
		for k := range row.counts {
			j, v := row.cell(k)
			if v == 0 {
				continue
			}
			lo, hi := cc.postStart[j], cc.postStart[j+1]
			refs := cc.postRef[lo:hi]
			vals := cc.postVal[lo:hi]
			vals = vals[:len(refs)] // lets the compiler drop the vals[k] bounds checks
			switch c.measure {
			case MeasureIntersection:
				f := float64(v) / total
				for k, r := range refs {
					acc[r] += math.Min(f, vals[k])
				}
			case MeasureBhattacharyya:
				f := float64(v) / total
				for k, r := range refs {
					acc[r] += math.Sqrt(f * vals[k])
				}
			default: // cosine, count domain
				f := float64(v)
				for k, r := range refs {
					acc[r] += f * vals[k]
				}
			}
		}
		// A zero sum (no shared bin) would add w·(+0): skipping it
		// leaves the score bit-identical.
		for r, a := range acc {
			if a == 0 {
				continue
			}
			if c.measure.isCosine() {
				a /= cn * cc.norms[r]
			}
			sims[r] += cc.weights[r] * a
		}
	}
	return sims
}
