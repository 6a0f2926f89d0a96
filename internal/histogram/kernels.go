package histogram

// Count-domain similarity kernels. The matching hot loop compares one
// candidate histogram against many reference histograms; converting to
// frequency vectors first costs one []float64 allocation per comparison
// and a division per bin. These kernels operate directly on raw uint64
// counts, exploiting that cosine similarity is invariant under the
// count→frequency scaling and that the remaining measures only need the
// observation totals. Variants taking precomputed norms let a compiled
// database hoist the per-reference work out of the loop entirely.

import "math"

// Norm returns the Euclidean norm ‖a‖ of a frequency vector.
func Norm(a []float64) float64 {
	var n float64
	for _, v := range a {
		n += v * v
	}
	return math.Sqrt(n)
}

// Dot returns the dot product Σ a_j·b_j of two frequency vectors.
// Vectors of different lengths yield 0.
//
// The loop is unrolled by four with the sum still accumulated in index
// order, so the result is bit-identical to the plain loop. The plain
// loop is a few bytes long, and its speed depends on where the linker
// happens to place it: inlined into the compiled matcher, it ran 10–20%
// slower whenever it straddled a 64-byte boundary, which any unrelated
// code-size change can toggle. The unrolled body is fast at either
// placement (EXPERIMENTS.md, "Decode at memory speed").
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		dot += x[0] * y[0]
		dot += x[1] * y[1]
		dot += x[2] * y[2]
		dot += x[3] * y[3]
	}
	for ; i < len(a); i++ {
		dot += a[i] * b[i]
	}
	return dot
}

// CosineNormed is Cosine with both Euclidean norms precomputed
// (na = ‖a‖, nb = ‖b‖). With identical accumulation order it is
// bit-identical to Cosine. Zero norms yield 0.
func CosineNormed(a, b []float64, na, nb float64) float64 {
	if len(a) != len(b) || na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

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

// IntersectionCounts computes histogram intersection Σ min(a_j/at, b_j/bt)
// on raw counts with precomputed totals at = Σa, bt = Σb.
func IntersectionCounts(a, b []uint64, at, bt uint64) float64 {
	if len(a) != len(b) || at == 0 || bt == 0 {
		return 0
	}
	fat, fbt := float64(at), float64(bt)
	var s float64
	for i := range a {
		s += math.Min(float64(a[i])/fat, float64(b[i])/fbt)
	}
	return s
}

// BhattacharyyaCounts computes the Bhattacharyya coefficient
// Σ √(a_j·b_j/(at·bt)) on raw counts with precomputed totals.
func BhattacharyyaCounts(a, b []uint64, at, bt uint64) float64 {
	if len(a) != len(b) || at == 0 || bt == 0 {
		return 0
	}
	inv := 1 / math.Sqrt(float64(at)*float64(bt))
	var s float64
	for i := range a {
		s += math.Sqrt(float64(a[i]) * float64(b[i]))
	}
	return s * inv
}

// L1Counts computes 1 − ½·Σ|a_j/at − b_j/bt| on raw counts with
// precomputed totals.
func L1Counts(a, b []uint64, at, bt uint64) float64 {
	if len(a) != len(b) || at == 0 || bt == 0 {
		return 0
	}
	fat, fbt := float64(at), float64(bt)
	var d float64
	for i := range a {
		d += math.Abs(float64(a[i])/fat - float64(b[i])/fbt)
	}
	return 1 - d/2
}
