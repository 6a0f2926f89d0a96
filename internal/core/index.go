package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// This file implements the compiled database's match index: a
// coarse-to-fine structure built at Compile time that lets the top-k,
// Best and Above entry points touch far fewer than N references per
// candidate while returning results bit-identical to the exhaustive
// scan. Three cooperating layers:
//
//  1. An inverted index over non-empty fine bins plus CSR sparse rows.
//     Reference histograms are ~13× sparse (the binary codec's varint
//     stream demonstrates the same), so the exact kernels stream only
//     the non-zero cells, and a candidate's shortlist is the union of
//     the postings of its own non-zero bins.
//  2. Norm bounds. Each reference row is folded into coarseGroups
//     coarse cells (partial Euclidean norms for cosine, group sums for
//     the frequency measures), giving a cheap Cauchy–Schwarz-style
//     upper bound on the similarity that screens shortlisted
//     references before their exact score is computed. On top of that,
//     every fine bin carries its maximum possible contribution
//     (MaxScore), so the term walk stops opening common bins as soon
//     as the bins still unopened cannot beat the current k-th score.
//  3. Exactness. Pruning decisions only ever use upper bounds inflated
//     by a float-safety margin; surviving references are scored by
//     sparse kernels that perform the same float operations in the
//     same order as the dense path (dropped terms are exact +0 adds,
//     which cannot change an IEEE accumulator built from non-negative
//     terms), so every returned score, order and tie is bit-identical
//     to the exhaustive scan. The L1 measure's disjoint scores are not
//     exactly zero (frequency sums round), so its shortlist is the
//     class-overlap set and its kernel merges the union of both
//     supports — same guarantee, weaker pruning.
//
// The full similarity vector (MatchInto over an indexed snapshot) can
// prune nothing, since it returns every score, but it reads the
// inverted index too: a postings scatter. Per class it walks only the
// candidate's non-zero bins; for each, it walks the bin's postings and
// adds the term (product, min or √ of the candidate value and the
// posting's stored row value, postVal) into a per-reference
// accumulator in the MatchScratch. The work is the candidate's shared
// support, not every reference's CSR row. It stays bit-identical: a
// reference receives exactly its non-zero terms, in ascending bin
// order, and every term the scatter never visits is an exact +0 in the
// dense loop (a bin the candidate lacks), which cannot change a sum of
// non-negative terms. The candidate values are the dense path's own
// (float64 counts for cosine, float64(count)/total otherwise, as in
// AppendFreqs), and each reference's sum is folded into its score by
// the same weighting and normalisation. L1 keeps its union merge.

// IndexMode controls whether Compile builds the match index.
type IndexMode uint8

const (
	// IndexAuto builds the index once the reference set is large enough
	// for pruning to pay for itself (indexAutoMin references).
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

const (
	// indexAutoMin is the reference count at which IndexAuto builds the
	// index. Below it the dense kernels' contiguous loops win; above it
	// sparsity and pruning do.
	indexAutoMin = 256
	// coarseGroups is the number of coarse cells each reference row is
	// folded into for the norm-bound prefilter.
	coarseGroups = 8
)

// inflateBound pads an upper bound computed in floating point so it
// soundly dominates the exactly-computed score it bounds: the bound
// arithmetic and the exact kernel each accumulate relative error far
// below 1e-9, so a reference is pruned only when even the padded bound
// cannot reach the current threshold — ties at the threshold always
// survive to the exact kernel.
func inflateBound(ub float64) float64 { return ub*(1+1e-9) + 1e-12 }

// IndexStats describes the compiled match index, for Stats endpoints
// and /metrics.
type IndexStats struct {
	// Enabled reports whether the compiled snapshot carries an index.
	Enabled bool `json:"enabled"`
	// References is the number of indexed reference rows.
	References int `json:"references,omitempty"`
	// Classes is the number of frame classes carrying index data.
	Classes int `json:"classes,omitempty"`
	// Coarse is the number of coarse cells per reference row.
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
	bins      int
	groupSize int // fine bins per coarse cell
	classes   [dot11.NumClasses]classIndex
	stats     IndexStats
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
	// posting's row value alongside for the full-vector scatter.
	postStart []int32 // len bins+1
	postRef   []int32
	postVal   []float64
	// Per-bin maximum contribution factor (MaxScore); nil for L1.
	binBound []float64
	// Per-reference coarse row, coarseGroups cells each: partial
	// Euclidean norms (cosine) or group sums (frequency measures).
	coarse []float64
	// classRefs lists the references carrying the class, ascending —
	// the L1 shortlist (class overlap, not bin overlap).
	classRefs []int32
	// wMax is the maximum reference weight, for intersection bounds.
	wMax float64
}

// buildIndex freezes the index layers from the live reference map. The
// caller has already populated c's has/weights/norms bookkeeping.
func buildIndex(db *Database, c *CompiledDB) *matchIndex {
	n := len(c.addrs)
	cosine := c.measure.isCosine()
	ix := &matchIndex{
		bins:      c.bins,
		groupSize: (c.bins + coarseGroups - 1) / coarseGroups,
	}
	for ci := range c.classes {
		cc := &c.classes[ci]
		if !cc.present {
			continue
		}
		cx := &ix.classes[ci]
		cx.rowStart = make([]int32, n+1)
		cx.coarse = make([]float64, n*coarseGroups)
		if c.measure != MeasureL1 {
			cx.binBound = make([]float64, c.bins)
		}
		binRefs := make([]int32, c.bins) // postings length per bin
		// First pass: CSR rows, coarse cells and per-bin bounds.
		for r, addr := range db.order {
			cx.rowStart[r] = int32(len(cx.rowBin))
			if !cc.has[r] {
				continue
			}
			cx.classRefs = append(cx.classRefs, int32(r))
			w := cc.weights[r]
			if w > cx.wMax {
				cx.wMax = w
			}
			h := db.refs[addr].Hist(dot11.Class(ci))
			total := float64(h.Total())
			co := cx.coarse[r*coarseGroups : (r+1)*coarseGroups]
			var norm float64
			if cosine {
				norm = cc.norms[r]
			}
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
				g := j / ix.groupSize
				switch {
				case cosine:
					co[g] += v * v
				default:
					co[g] += v
				}
				if cx.binBound != nil {
					var b float64
					switch {
					case cosine:
						if norm > 0 {
							b = w * v / norm
						}
					case c.measure == MeasureBhattacharyya:
						b = w * math.Sqrt(v)
					default: // intersection
						b = w * v
					}
					if b > cx.binBound[j] {
						cx.binBound[j] = b
					}
				}
			}
			if cosine {
				for g := range co {
					co[g] = math.Sqrt(co[g])
				}
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
			int64(len(cx.rowVal)+len(cx.postVal)+len(cx.coarse)+len(cx.binBound))*8
		ix.stats.DenseBytes += int64(n) * int64(c.bins) * 8
	}
	ix.stats.Enabled = true
	ix.stats.References = n
	ix.stats.Coarse = coarseGroups
	return ix
}

// --- candidate-side search state ----------------------------------------------

// candPrep is one frame class of the candidate, unpacked for the index
// kernels: the dense vector the dense path would compare (float64
// counts for cosine, frequencies otherwise), its non-zero support, the
// candidate count norm, and the coarse fold used by the norm bounds.
type candPrep struct {
	cf     []float64
	nz     []int32
	cn     float64
	coarse [coarseGroups]float64
}

// searchTerm is one (class, candidate bin) pair of the pruned walk,
// with its posting length and maximum possible score contribution.
type searchTerm struct {
	class int32
	bin   int32
	plen  int32
	bound float64
}

// topEntry is one slot of the running top-k: the exact score and the
// reference's insertion index, which breaks ties exactly as the
// exhaustive scan's first-strict-max rule does.
type topEntry struct {
	sim float64
	ref int32
}

// better reports whether (sim, ref) ranks strictly ahead of e under the
// exhaustive order: higher score first, earlier insertion index on ties.
func (e topEntry) better(sim float64, ref int32) bool {
	return sim > e.sim || (sim == e.sim && ref < e.ref)
}

// searchState holds the reusable buffers of the pruned search. It lives
// inside MatchScratch so the engines' long-lived scratches amortise it.
type searchState struct {
	prep    [dot11.NumClasses]candPrep
	prepped [dot11.NumClasses]bool
	stamp   []int32
	epoch   int32
	terms   []searchTerm
	top     []topEntry
	out     []Score
}

// ensureSearch sizes the per-DB buffers and opens a new stamp epoch.
func (s *MatchScratch) ensureSearch(n int) *searchState {
	if s.search == nil {
		s.search = &searchState{}
	}
	st := s.search
	if len(st.stamp) < n {
		st.stamp = make([]int32, n)
		st.epoch = 0
	}
	if st.epoch == math.MaxInt32 {
		clear(st.stamp)
		st.epoch = 0
	}
	st.epoch++
	return st
}

// prepCandidate unpacks the candidate's classes against c's shape. Only
// classes that can contribute to any reference are marked prepped; the
// dense vectors hold exactly the values the dense kernels would see.
func (c *CompiledDB) prepCandidate(candidate *Signature, st *searchState) {
	cosine := c.measure.isCosine()
	for ci := range st.prepped {
		st.prepped[ci] = false
	}
	if candidate == nil {
		return
	}
	for ci := range c.classes {
		cc := &c.classes[ci]
		if !cc.present {
			continue
		}
		ch := candidate.Hist(dot11.Class(ci))
		if ch == nil || ch.Bins() != c.bins {
			continue
		}
		p := &st.prep[ci]
		if len(p.cf) < c.bins {
			p.cf = make([]float64, c.bins)
		}
		p.nz = p.nz[:0]
		p.coarse = [coarseGroups]float64{}
		gsz := c.idx.groupSize
		counts := ch.CountsView()
		if cosine {
			p.cn = histogram.CountNorm(counts)
			if p.cn == 0 {
				// Empty class: CosineNormed yields exact 0 for every
				// reference, so the class contributes nothing.
				continue
			}
			for j, v := range counts {
				if v == 0 {
					continue
				}
				f := float64(v)
				p.cf[j] = f
				p.nz = append(p.nz, int32(j))
				p.coarse[j/gsz] += f * f
			}
			for g := range p.coarse {
				p.coarse[g] = math.Sqrt(p.coarse[g])
			}
		} else {
			p.cn = 0
			if t := ch.Total(); t != 0 {
				ft := float64(t)
				for j, v := range counts {
					if v == 0 {
						continue
					}
					f := float64(v) / ft
					p.cf[j] = f
					p.nz = append(p.nz, int32(j))
					p.coarse[j/gsz] += f
				}
			}
			// A present-but-empty class still matters for L1 (its
			// distance to a non-empty reference row is not zero), so it
			// stays prepped with an empty support.
		}
		st.prepped[ci] = true
	}
}

// cleanupCandidate restores the dense buffers' all-zero invariant.
func (c *CompiledDB) cleanupCandidate(st *searchState) {
	for ci := range st.prepped {
		if !st.prepped[ci] {
			continue
		}
		p := &st.prep[ci]
		for _, j := range p.nz {
			p.cf[j] = 0
		}
	}
}

// scoreRef computes the candidate's exact similarity against reference
// r through the sparse rows: the same float operations in the same
// (ascending class, ascending bin) order as the dense MatchInto path,
// with only exact-zero terms dropped — bit-identical by construction.
func (c *CompiledDB) scoreRef(r int, st *searchState) float64 {
	sim := 0.0
	for ci := range c.classes {
		if !st.prepped[ci] {
			continue
		}
		cc := &c.classes[ci]
		if !cc.has[r] {
			continue
		}
		cx := &c.idx.classes[ci]
		p := &st.prep[ci]
		start, end := cx.rowStart[r], cx.rowStart[r+1]
		switch c.measure {
		case MeasureIntersection:
			s := 0.0
			for i := start; i < end; i++ {
				s += math.Min(p.cf[cx.rowBin[i]], cx.rowVal[i])
			}
			sim += cc.weights[r] * s
		case MeasureBhattacharyya:
			s := 0.0
			for i := start; i < end; i++ {
				s += math.Sqrt(p.cf[cx.rowBin[i]] * cx.rowVal[i])
			}
			sim += cc.weights[r] * s
		case MeasureL1:
			sim += cc.weights[r] * l1Sparse(p.cf, p.nz, cx.rowBin[start:end], cx.rowVal[start:end])
		default: // cosine
			nrm := cc.norms[r]
			if nrm == 0 {
				continue
			}
			dot := 0.0
			for i := start; i < end; i++ {
				dot += p.cf[cx.rowBin[i]] * cx.rowVal[i]
			}
			sim += cc.weights[r] * (dot / (p.cn * nrm))
		}
	}
	return sim
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

// coarseBound returns an upper bound on scoreRef(r) from the coarse
// rows: per class, a grouped Cauchy–Schwarz bound for cosine and the
// matching grouped bounds for the other measures (min of sums ≥ sum of
// mins, √(ΣaΣb) ≥ Σ√(ab), |Σa−Σb| ≤ Σ|a−b|). Exact in real arithmetic;
// callers compare through inflateBound.
func (c *CompiledDB) coarseBound(r int, st *searchState) float64 {
	ub := 0.0
	for ci := range c.classes {
		if !st.prepped[ci] {
			continue
		}
		cc := &c.classes[ci]
		if !cc.has[r] {
			continue
		}
		p := &st.prep[ci]
		co := c.idx.classes[ci].coarse[r*coarseGroups : (r+1)*coarseGroups : (r+1)*coarseGroups]
		switch c.measure {
		case MeasureIntersection:
			s := 0.0
			for g, v := range co {
				s += math.Min(p.coarse[g], v)
			}
			ub += cc.weights[r] * s
		case MeasureBhattacharyya:
			s := 0.0
			for g, v := range co {
				s += math.Sqrt(p.coarse[g] * v)
			}
			ub += cc.weights[r] * s
		case MeasureL1:
			d := 0.0
			for g, v := range co {
				d += math.Abs(p.coarse[g] - v)
			}
			ub += cc.weights[r] * (1 - d/2)
		default: // cosine
			nrm := cc.norms[r]
			if nrm == 0 {
				continue
			}
			s := 0.0
			for g, v := range co {
				s += p.coarse[g] * v
			}
			ub += cc.weights[r] * (s / (p.cn * nrm))
		}
	}
	return ub
}

// buildTerms assembles the candidate's (class, bin) terms with their
// MaxScore bounds, sorted by ascending posting length so rare bins are
// walked first and common bins can be stopped out. Returns the sum of
// the term bounds — the starting value of the walk's remaining budget.
// Not used for L1, whose per-bin contributions don't decompose into
// non-negative terms.
func (c *CompiledDB) buildTerms(st *searchState) float64 {
	st.terms = st.terms[:0]
	total := 0.0
	for ci := range c.classes {
		if !st.prepped[ci] {
			continue
		}
		cx := &c.idx.classes[ci]
		p := &st.prep[ci]
		for _, j := range p.nz {
			plen := cx.postStart[j+1] - cx.postStart[j]
			if plen == 0 {
				continue // no reference carries the bin: exact zero everywhere
			}
			var b float64
			switch c.measure {
			case MeasureIntersection:
				b = math.Min(cx.wMax*p.cf[j], cx.binBound[j])
			case MeasureBhattacharyya:
				b = math.Sqrt(p.cf[j]) * cx.binBound[j]
			default: // cosine
				b = p.cf[j] / p.cn * cx.binBound[j]
			}
			total += b
			st.terms = append(st.terms, searchTerm{class: int32(ci), bin: j, plen: plen, bound: b})
		}
	}
	// Insertion sort by (posting length, class, bin): candidate supports
	// are small, and the deterministic order keeps walks reproducible.
	terms := st.terms
	for i := 1; i < len(terms); i++ {
		t := terms[i]
		k := i
		for k > 0 && (terms[k-1].plen > t.plen ||
			(terms[k-1].plen == t.plen && (terms[k-1].class > t.class ||
				(terms[k-1].class == t.class && terms[k-1].bin > t.bin)))) {
			terms[k] = terms[k-1]
			k--
		}
		terms[k] = t
	}
	return total
}

// offerTop inserts (sim, ref) into the running top-k if it ranks ahead
// of the current k-th entry, returning the updated slice and whether the
// entry ranked.
func offerTop(top []topEntry, k int, sim float64, ref int32) ([]topEntry, bool) {
	if len(top) == k {
		if !top[k-1].better(sim, ref) {
			return top, false
		}
	} else {
		top = append(top, topEntry{})
	}
	pos := len(top) - 1
	for pos > 0 && top[pos-1].better(sim, ref) {
		top[pos] = top[pos-1]
		pos--
	}
	top[pos] = topEntry{sim: sim, ref: ref}
	return top, true
}

// topKIndexed runs the pruned search: walk the candidate's terms
// rarest-first, exact-score each newly shortlisted reference that
// survives the coarse bound, and stop opening terms once the unopened
// remainder cannot beat the k-th score. Returns st.top ranked by the
// exhaustive order, with zero-score references merged in when the walk
// completed without pruning (only then can a zero still rank).
func (c *CompiledDB) topKIndexed(candidate *Signature, k int, st *searchState) []topEntry {
	st.top = st.top[:0]
	c.prepCandidate(candidate, st)
	stopped := false
	if c.measure == MeasureL1 {
		// Class-overlap shortlist: disjoint-support scores are near but
		// not exactly zero, so every reference sharing a class is scored.
		for ci := range c.classes {
			if !st.prepped[ci] {
				continue
			}
			for _, r := range c.idx.classes[ci].classRefs {
				if st.stamp[r] == st.epoch {
					continue
				}
				st.stamp[r] = st.epoch
				if len(st.top) == k && !st.top[k-1].better(inflateBound(c.coarseBound(int(r), st)), r) {
					// Bound can't displace the k-th entry: skip the exact kernel.
					continue
				}
				st.top, _ = offerTop(st.top, k, c.scoreRef(int(r), st), r)
			}
		}
	} else {
		remaining := c.buildTerms(st)
		for _, t := range st.terms {
			if len(st.top) == k && !st.top[k-1].better(inflateBound(remaining), math.MaxInt32) {
				// Even a reference collecting every unopened term's full
				// bound cannot displace the k-th entry.
				stopped = true
				break
			}
			cx := &c.idx.classes[t.class]
			for _, r := range cx.postRef[cx.postStart[t.bin]:cx.postStart[t.bin+1]] {
				if st.stamp[r] == st.epoch {
					continue
				}
				st.stamp[r] = st.epoch
				if len(st.top) == k && !st.top[k-1].better(inflateBound(c.coarseBound(int(r), st)), r) {
					continue
				}
				st.top, _ = offerTop(st.top, k, c.scoreRef(int(r), st), r)
			}
			remaining -= t.bound
		}
	}
	if !stopped {
		// References outside the shortlist score exactly +0; merge them
		// in ascending insertion order until one fails to rank.
		for r := 0; r < len(c.addrs); r++ {
			if st.stamp[r] == st.epoch {
				continue
			}
			var ok bool
			if st.top, ok = offerTop(st.top, k, 0, int32(r)); !ok {
				break
			}
		}
	}
	c.cleanupCandidate(st)
	return st.top
}

// aboveIndexed runs the pruned threshold search (threshold > 0): same
// term walk with a fixed bar instead of a moving k-th score. Returns
// the qualifying references in insertion order, exactly as the
// exhaustive scan emits them.
func (c *CompiledDB) aboveIndexed(candidate *Signature, threshold float64, st *searchState) []Score {
	st.top = st.top[:0] // reused as the hit list
	c.prepCandidate(candidate, st)
	score := func(r int32) {
		if st.stamp[r] == st.epoch {
			return
		}
		st.stamp[r] = st.epoch
		if inflateBound(c.coarseBound(int(r), st)) < threshold {
			return
		}
		if sim := c.scoreRef(int(r), st); sim >= threshold {
			st.top = append(st.top, topEntry{sim: sim, ref: r})
		}
	}
	if c.measure == MeasureL1 {
		for ci := range c.classes {
			if !st.prepped[ci] {
				continue
			}
			for _, r := range c.idx.classes[ci].classRefs {
				score(r)
			}
		}
	} else {
		remaining := c.buildTerms(st)
		for _, t := range st.terms {
			if inflateBound(remaining) < threshold {
				break // unopened terms cannot reach the bar
			}
			cx := &c.idx.classes[t.class]
			for _, r := range cx.postRef[cx.postStart[t.bin]:cx.postStart[t.bin+1]] {
				score(r)
			}
			remaining -= t.bound
		}
	}
	c.cleanupCandidate(st)
	if len(st.top) == 0 {
		return nil
	}
	slices.SortFunc(st.top, func(a, b topEntry) int { return cmp.Compare(a.ref, b.ref) })
	out := make([]Score, len(st.top))
	for i, e := range st.top {
		out[i] = Score{Addr: c.addrs[e.ref], Sim: e.sim}
	}
	return out
}

// matchIndexed writes the full similarity vector into scores, which
// arrive holding each reference's address and a zero score, by the
// postings scatter described at the top of this file.
func (c *CompiledDB) matchIndexed(candidate *Signature, scratch *MatchScratch, scores []Score) {
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
				scores[r].Sim += cc.weights[r] * l1Sparse(cf, nz, cx.rowBin[start:end], cx.rowVal[start:end])
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
			scores[r].Sim += cc.weights[r] * a
		}
	}
}
