// Package histogram implements the fixed-width binned histograms and the
// histogram similarity measures at the heart of the paper's signature
// (Definition 1) and matching (Definition 2, Algorithm 1).
//
// A Histogram accumulates raw observation counts; Freqs converts it to
// the percentage-frequency distribution the paper matches on. Cosine is
// the paper's measure; Intersection, Bhattacharyya and L1 are provided
// for the "alternative similarity measure" ablation the paper leaves to
// future work.
//
// The package is bit-identical by contract: kernels perform the same
// float operations in the same order on every run.
//
//fp:deterministic
package histogram

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin-width histogram over [0, binWidth*len(counts)).
// Values below zero are dropped; values at or above the top edge are
// folded into the last bin (the paper clamps its inter-arrival plots at
// 2.5 ms the same way). The zero value is unusable; use New.
type Histogram struct {
	binWidth float64
	counts   []uint64
	total    uint64
	dropped  uint64
}

// New creates a histogram with nbins bins of the given width.
// It panics if nbins <= 0 or binWidth <= 0 — these are static
// configuration errors, not runtime conditions.
func New(nbins int, binWidth float64) *Histogram {
	if nbins <= 0 || binWidth <= 0 {
		panic(fmt.Sprintf("histogram: invalid shape nbins=%d width=%v", nbins, binWidth))
	}
	return &Histogram{binWidth: binWidth, counts: make([]uint64, nbins)}
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{binWidth: h.binWidth, total: h.total, dropped: h.dropped}
	c.counts = make([]uint64, len(h.counts))
	copy(c.counts, h.counts)
	return c
}

// bin maps a value to its bin index, clamping overflow (including +Inf
// and values whose quotient exceeds the int range) into the top bin.
// It returns -1 for values that must be dropped.
func (h *Histogram) bin(v float64) int {
	if v < 0 || math.IsNaN(v) {
		return -1
	}
	q := v / h.binWidth
	if q >= float64(len(h.counts)) {
		return len(h.counts) - 1 // clamp into the top bin
	}
	return int(q)
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	i := h.bin(v)
	if i < 0 {
		h.dropped++
		return
	}
	h.counts[i]++
	h.total++
}

// AddN records n identical observations.
func (h *Histogram) AddN(v float64, n uint64) {
	i := h.bin(v)
	if i < 0 {
		h.dropped += n
		return
	}
	h.counts[i] += n
	h.total += n
}

// Merge adds other's counts into h. Histograms must have identical
// shapes; mismatches are reported as an error because merged signatures
// cross a trust boundary (reference databases may be loaded from disk).
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(h.counts) != len(other.counts) || h.binWidth != other.binWidth {
		return fmt.Errorf("histogram: shape mismatch: %d×%v vs %d×%v",
			len(h.counts), h.binWidth, len(other.counts), other.binWidth)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.dropped += other.dropped
	return nil
}

// Total returns the number of observations recorded (excluding dropped).
// This is the paper's |P^ftype(s)|.
func (h *Histogram) Total() uint64 { return h.total }

// Dropped returns the number of out-of-domain observations discarded.
func (h *Histogram) Dropped() uint64 { return h.dropped }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// BinWidth returns the bin width.
func (h *Histogram) BinWidth() float64 { return h.binWidth }

// Count returns the raw count of bin i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Counts returns a copy of the raw counts.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Freqs returns the percentage-frequency distribution P_j =
// o_j / |P^ftype(s)| (paper §IV-A). An empty histogram yields all zeros.
func (h *Histogram) Freqs() []float64 {
	return h.AppendFreqs(make([]float64, 0, len(h.counts)))
}

// AppendFreqs appends the percentage-frequency distribution to dst and
// returns the extended slice. Passing a scratch slice with sufficient
// capacity (dst[:0] with cap ≥ Bins()) makes the conversion
// allocation-free; the values are bit-identical to Freqs.
func (h *Histogram) AppendFreqs(dst []float64) []float64 {
	if h.total == 0 {
		for range h.counts {
			dst = append(dst, 0)
		}
		return dst
	}
	t := float64(h.total)
	for _, c := range h.counts {
		dst = append(dst, float64(c)/t)
	}
	return dst
}

// CountsView returns the live backing slice of raw counts without
// copying. It exists for the zero-allocation matching kernels; callers
// must treat the slice as read-only and must not retain it across
// subsequent Add/Merge calls.
func (h *Histogram) CountsView() []uint64 { return h.counts }

// Mode returns the centre value of the most populated bin, used by the
// figure reproductions to locate histogram peaks.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.counts {
		if c > h.counts[best] {
			best = i
		}
	}
	return (float64(best) + 0.5) * h.binWidth
}

// Cosine computes the cosine similarity of two frequency vectors:
//
//	sim = Σ a_j·b_j / (‖a‖·‖b‖)
//
// It is 1 for identical distributions and 0 for disjoint ones. (The
// paper's Definition 2 prints a stray "1 −" in front of the quotient but
// its prose — "the similarity equals 1 if two signatures are exactly the
// same … 0 when signatures have no intersection" — matches this form.)
// Vectors of different lengths or zero norm yield 0.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Intersection computes the histogram-intersection similarity
// Σ min(a_j, b_j), which is 1 for identical frequency distributions.
func Intersection(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var s float64
	for i := range a {
		s += math.Min(a[i], b[i])
	}
	return s
}

// Bhattacharyya computes the Bhattacharyya coefficient Σ √(a_j·b_j),
// 1 for identical distributions.
func Bhattacharyya(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var s float64
	for i := range a {
		s += math.Sqrt(a[i] * b[i])
	}
	return s
}

// L1 computes a similarity derived from total variation distance:
// 1 − ½·Σ|a_j − b_j|, again 1 for identical distributions.
func L1(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return 1 - d/2
}
