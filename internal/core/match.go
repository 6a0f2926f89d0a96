package core

import (
	"fmt"
	"math"

	"dot11fp/internal/dot11"
)

// Measure selects the histogram similarity function. The paper uses
// cosine similarity; the others support the "alternative measures"
// ablation.
type Measure uint8

// Similarity measures.
const (
	// MeasureCosine is the paper's Definition 2.
	MeasureCosine Measure = iota + 1
	// MeasureIntersection is histogram intersection Σ min(a,b).
	MeasureIntersection
	// MeasureBhattacharyya is the Bhattacharyya coefficient.
	MeasureBhattacharyya
	// MeasureL1 is 1 − total-variation distance.
	MeasureL1
)

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case MeasureCosine:
		return "cosine"
	case MeasureIntersection:
		return "intersection"
	case MeasureBhattacharyya:
		return "bhattacharyya"
	case MeasureL1:
		return "l1"
	default:
		return fmt.Sprintf("measure(%d)", uint8(m))
	}
}

// Measures lists all similarity measures.
var Measures = []Measure{MeasureCosine, MeasureIntersection, MeasureBhattacharyya, MeasureL1}

// MeasureByName resolves a measure's String() name ("cosine",
// "intersection", "bhattacharyya" or "l1").
func MeasureByName(s string) (Measure, error) {
	for _, m := range Measures {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown similarity measure %q (want one of cosine, intersection, bhattacharyya, l1)", s)
}

// isCosine reports whether the measure evaluates as cosine. Unknown
// values fall back to cosine, so the naive and compiled paths agree
// for every possible Measure value.
func (m Measure) isCosine() bool {
	switch m {
	case MeasureIntersection, MeasureBhattacharyya, MeasureL1:
		return false
	default:
		return true
	}
}

// Similarity computes Algorithm 1 for one candidate/reference pair:
//
//	sim = Σ_{ftype ∈ Sig(c)} weight^ftype(r) · simCos(hist^ftype(c), hist^ftype(r))
//
// Frame types absent from the reference contribute nothing (their
// reference weight is zero); frame types absent from the candidate are
// not iterated, exactly as in the paper's pseudo-code.
//
// Cosine — the paper's measure — is evaluated in the count domain, like
// histogram.CosineCounts: cosine similarity is invariant under the
// count→frequency scaling, so raw counts give the mathematically
// identical result (agreeing with the frequency-domain evaluation to
// floating-point rounding). Each class walks the union of both rows'
// non-zero bins in ascending order: a bin zero on both sides adds an
// exact +0 to the dense per-bin sum, whose bits CompiledDB reproduces.
func Similarity(candidate, reference *Signature, m Measure) float64 {
	if candidate == nil || reference == nil || candidate.bins.Bins != reference.bins.Bins {
		return 0 // a shape mismatch scores 0 on every class
	}
	sim := 0.0
	for c, k := range candidate.slot {
		if k == 0 {
			continue
		}
		rr := reference.row(dot11.Class(c))
		if rr == nil {
			continue
		}
		sim += reference.Weight(dot11.Class(c)) * rowSimilarity(candidate.row(dot11.Class(c)), rr, m)
	}
	return sim
}

// rowSimilarity is the measure on one class's pair of rows, walking the
// union of their entries in ascending bin order.
func rowSimilarity(a, b *classRow, m Measure) float64 {
	var na, nb float64
	if m.isCosine() {
		if na, nb = a.norm(), b.norm(); na == 0 || nb == 0 {
			return 0
		}
	}
	var s float64
	for ka, kb := 0, 0; ka < len(a.counts) || kb < len(b.counts); {
		ja, x := a.at(ka)
		jb, y := b.at(kb)
		if ja <= jb {
			ka++
		} else {
			x = 0
		}
		if jb <= ja {
			kb++
		} else {
			y = 0
		}
		// The frequencies count/total, as histogram.Freqs computes them.
		var p, q float64
		if x != 0 {
			p = float64(x) / float64(a.total)
		}
		if y != 0 {
			q = float64(y) / float64(b.total)
		}
		switch {
		case m.isCosine():
			s += float64(x) * float64(y)
		case m == MeasureIntersection:
			s += math.Min(p, q)
		case m == MeasureBhattacharyya:
			s += math.Sqrt(p * q)
		default: // MeasureL1
			s += math.Abs(p - q)
		}
	}
	switch {
	case m.isCosine():
		return s / (na * nb)
	case m == MeasureL1:
		return 1 - s/2
	}
	return s
}
