package core

import (
	"fmt"
	"math"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// This file implements the compiled database's match index, built at
// Compile time once the reference set is large: an inverted index over
// the non-empty fine bins plus CSR sparse rows. Reference histograms are
// ~13× sparse (the binary codec's varint stream demonstrates the same),
// so neither stores the zero cells the dense N×bins matrices would.
//
// The similarity vector (simsInto over an indexed snapshot) reads the
// inverted index as a postings scatter. Per class it walks only the
// candidate's non-zero bins; for each, it walks the bin's postings and
// adds the term (product, min or √ of the candidate value and the
// posting's stored row value, postVal) into a per-reference accumulator
// in the MatchScratch. The work is the candidate's shared support, not
// every reference's row. It stays bit-identical to the dense path: a
// reference receives exactly its non-zero terms, in ascending bin
// order, and every term the scatter never visits is an exact +0 in the
// dense loop (a bin the candidate lacks), which cannot change a sum of
// non-negative terms. The candidate values are the dense path's own
// (float64 counts for cosine, float64(count)/total otherwise, as in
// AppendFreqs), and each reference's sum is folded into its score by
// the same weighting and normalisation. The L1 measure's disjoint
// scores are not exactly zero (frequency sums round), so it instead
// merges the union of both supports over every reference sharing a
// class (the CSR rows and classRefs) — same guarantee.
//
// TopK, Best and Above select from that vector (see selectTop), so they
// are bit-identical to ranking or filtering the full vector by
// construction.

// IndexMode controls whether Compile builds the match index.
type IndexMode uint8

const (
	// IndexAuto builds the index once the reference set is large enough
	// for the scatter to beat the dense rows (indexAutoMin references).
	IndexAuto IndexMode = iota
	// IndexOn always builds the index.
	IndexOn
	// IndexOff never builds it: matching uses the dense matrices. The
	// exhaustive baseline for A/B comparisons.
	IndexOff
)

// String implements fmt.Stringer.
func (m IndexMode) String() string {
	switch m {
	case IndexOn:
		return "on"
	case IndexOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseIndexMode resolves "auto", "on" or "off".
func ParseIndexMode(s string) (IndexMode, error) {
	switch s {
	case "auto":
		return IndexAuto, nil
	case "on":
		return IndexOn, nil
	case "off":
		return IndexOff, nil
	}
	return 0, fmt.Errorf("core: unknown index mode %q (want auto, on or off)", s)
}

// indexAutoMin is the reference count at which IndexAuto builds the
// index. Below it the dense kernels' contiguous loops win; above it
// sparsity does.
const indexAutoMin = 256

// IndexStats describes the compiled match index, for Stats endpoints
// and /metrics.
type IndexStats struct {
	// Enabled reports whether the compiled snapshot carries an index.
	Enabled bool `json:"enabled"`
	// References is the number of indexed reference rows.
	References int `json:"references,omitempty"`
	// Classes is the number of frame classes carrying index data.
	Classes int `json:"classes,omitempty"`
	// Coarse is always 0; the key stays for API stability.
	Coarse int `json:"coarse,omitempty"`
	// Entries is the number of non-zero (reference, bin) cells stored.
	Entries int64 `json:"entries,omitempty"`
	// Postings is the number of inverted-index entries.
	Postings int64 `json:"postings,omitempty"`
	// IndexBytes approximates the index's memory footprint.
	IndexBytes int64 `json:"index_bytes,omitempty"`
	// DenseBytes is what the dense row matrices would occupy; the ratio
	// to IndexBytes is the realised sparsity.
	DenseBytes int64 `json:"dense_bytes,omitempty"`
}

// matchIndex is the per-snapshot index over the frozen references.
type matchIndex struct {
	classes [dot11.NumClasses]classIndex
	stats   IndexStats
}

// classIndex is one frame class's index layer.
type classIndex struct {
	// CSR of the class's non-zero reference cells, ascending bin order
	// within each row: float64 counts for cosine, frequencies for the
	// other measures — the same values the dense rows would hold.
	rowStart []int32 // len n+1
	rowBin   []int32
	rowVal   []float64
	// Inverted index: references (ascending) per fine bin, with each
	// posting's row value alongside for the scatter.
	postStart []int32 // len bins+1
	postRef   []int32
	postVal   []float64
	// classRefs lists the references carrying the class, ascending —
	// the references the L1 union merge visits.
	classRefs []int32
}

// buildIndex freezes the index layers from the live reference map. The
// caller has already populated c's per-class has bookkeeping.
func buildIndex(db *Database, c *CompiledDB) *matchIndex {
	n := len(c.addrs)
	cosine := c.measure.isCosine()
	ix := &matchIndex{}
	for ci := range c.classes {
		cc := &c.classes[ci]
		if !cc.present {
			continue
		}
		cx := &ix.classes[ci]
		cx.rowStart = make([]int32, n+1)
		binRefs := make([]int32, c.bins) // postings length per bin
		// First pass: CSR rows.
		for r, addr := range db.order {
			cx.rowStart[r] = int32(len(cx.rowBin))
			if !cc.has[r] {
				continue
			}
			cx.classRefs = append(cx.classRefs, int32(r))
			h := db.refs[addr].Hist(dot11.Class(ci))
			total := float64(h.Total())
			for j, cnt := range h.CountsView() {
				if cnt == 0 {
					continue
				}
				// The dense row's value: the float64 count for cosine,
				// float64(count)/total (as AppendFreqs computes it) otherwise.
				v := float64(cnt)
				if !cosine {
					v /= total
				}
				cx.rowBin = append(cx.rowBin, int32(j))
				cx.rowVal = append(cx.rowVal, v)
				binRefs[j]++
			}
		}
		cx.rowStart[n] = int32(len(cx.rowBin))
		// Second pass: postings, ascending reference order per bin.
		cx.postStart = make([]int32, c.bins+1)
		var total int32
		for j, cnt := range binRefs {
			cx.postStart[j] = total
			total += cnt
		}
		cx.postStart[c.bins] = total
		cx.postRef = make([]int32, total)
		cx.postVal = make([]float64, total)
		fill := make([]int32, c.bins)
		copy(fill, cx.postStart[:c.bins])
		for r := 0; r < n; r++ {
			for i := cx.rowStart[r]; i < cx.rowStart[r+1]; i++ {
				j := cx.rowBin[i]
				cx.postRef[fill[j]] = int32(r)
				cx.postVal[fill[j]] = cx.rowVal[i]
				fill[j]++
			}
		}
		ix.stats.Classes++
		ix.stats.Entries += int64(len(cx.rowBin))
		ix.stats.Postings += int64(len(cx.postRef))
		ix.stats.IndexBytes += int64(len(cx.rowStart)+len(cx.rowBin)+len(cx.postStart)+len(cx.postRef)+len(cx.classRefs))*4 +
			int64(len(cx.rowVal)+len(cx.postVal))*8
		ix.stats.DenseBytes += int64(n) * int64(c.bins) * 8
	}
	ix.stats.Enabled = true
	ix.stats.References = n
	return ix
}

// l1Sparse evaluates 1 − ½·Σ|a_j − b_j| over the merged supports of the
// candidate (dense cf with support nz) and a reference CSR row. Bins
// where both sides are zero contribute exact +0 in the dense loop and
// are skipped; one-sided bins reduce to the surviving value (|x−0| ≡ x
// bit-for-bit for the non-negative frequencies involved).
func l1Sparse(cf []float64, nz []int32, rowBin []int32, rowVal []float64) float64 {
	d := 0.0
	i, k := 0, 0
	for i < len(rowBin) && k < len(nz) {
		rb, cb := rowBin[i], nz[k]
		switch {
		case rb == cb:
			d += math.Abs(cf[cb] - rowVal[i])
			i++
			k++
		case rb < cb:
			d += rowVal[i]
			i++
		default:
			d += cf[cb]
			k++
		}
	}
	for ; i < len(rowBin); i++ {
		d += rowVal[i]
	}
	for ; k < len(nz); k++ {
		d += cf[nz[k]]
	}
	return 1 - d/2
}

// simsIndexed adds the candidate's per-reference similarities into
// sims, which arrive zeroed, by the postings scatter described at the
// top of this file.
func (c *CompiledDB) simsIndexed(candidate *Signature, scratch *MatchScratch, sims []float64) {
	n := len(c.addrs)
	if cap(scratch.acc) < n {
		scratch.acc = make([]float64, n)
	}
	acc := scratch.acc[:n]
	for ci := range c.classes {
		cc := &c.classes[ci]
		if !cc.present {
			continue
		}
		ch := candidate.Hist(dot11.Class(ci))
		if ch == nil || ch.Bins() != c.bins {
			continue
		}
		cx := &c.idx.classes[ci]
		counts := ch.CountsView()
		if c.measure == MeasureL1 {
			cf := ch.AppendFreqs(scratch.freqs[:0])
			scratch.freqs = cf
			nz := scratch.l1nz[:0]
			for j, v := range counts {
				if v != 0 {
					nz = append(nz, int32(j))
				}
			}
			scratch.l1nz = nz
			for _, r := range cx.classRefs {
				start, end := cx.rowStart[r], cx.rowStart[r+1]
				sims[r] += cc.weights[r] * l1Sparse(cf, nz, cx.rowBin[start:end], cx.rowVal[start:end])
			}
			continue
		}
		// The candidate value of bin j is what the dense kernels see:
		// float64 counts for cosine, float64(count)/total otherwise.
		var cn, total float64
		if c.measure.isCosine() {
			if cn = histogram.CountNorm(counts); cn == 0 {
				continue // CosineNormed is exactly 0 for every reference
			}
		} else {
			if ch.Total() == 0 {
				continue // all-zero frequencies: every term is exactly 0
			}
			total = float64(ch.Total())
		}
		// Cleared per class rather than kept zero across calls, so a
		// recovered panic mid-scatter cannot leak partial sums into the
		// next match through a long-lived scratch.
		clear(acc)
		for j, v := range counts {
			if v == 0 {
				continue
			}
			lo, hi := cx.postStart[j], cx.postStart[j+1]
			refs := cx.postRef[lo:hi]
			vals := cx.postVal[lo:hi]
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
}
