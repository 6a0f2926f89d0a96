package histogram

// Count-domain similarity kernels. The matching hot loop compares one
// candidate histogram against many reference histograms; converting to
// frequency vectors first costs one []float64 allocation per comparison
// and a division per bin. These kernels operate directly on raw uint64
// counts, exploiting that cosine similarity is invariant under the
// count→frequency scaling. The variant taking precomputed norms lets a
// caller hoist the per-reference work out of the loop entirely.

import "math"

// CountNorm returns the Euclidean norm ‖a‖ of a count vector. Compiled
// databases precompute this per reference histogram so the cosine kernel
// reduces to a single dot product per comparison.
func CountNorm(a []uint64) float64 {
	var n float64
	for _, v := range a {
		f := float64(v)
		n += f * f
	}
	return math.Sqrt(n)
}

// DotCounts returns the dot product Σ a_j·b_j of two count vectors.
// Vectors of different lengths yield 0.
func DotCounts(a, b []uint64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// CosineCounts computes cosine similarity directly on raw counts.
// Because cosine is scale-invariant, the result equals
// Cosine(a.Freqs(), b.Freqs()) up to floating-point rounding, with no
// frequency conversion and no allocation.
func CosineCounts(a, b []uint64) float64 {
	return CosineCountsNormed(a, b, CountNorm(a), CountNorm(b))
}

// CosineCountsNormed is CosineCounts with both Euclidean norms
// precomputed (na = ‖a‖, nb = ‖b‖). Zero norms yield 0.
func CosineCountsNormed(a, b []uint64, na, nb float64) float64 {
	if len(a) != len(b) || na == 0 || nb == 0 {
		return 0
	}
	return DotCounts(a, b) / (na * nb)
}
