package histogram

import (
	"math"
	"testing"
)

// kernelFixtures returns pairs of histograms covering overlap, disjoint
// support, emptiness and clamping.
func kernelFixtures() []*Histogram {
	a := New(64, 10)
	b := New(64, 10)
	c := New(64, 10)
	empty := New(64, 10)
	for i := 0; i < 500; i++ {
		a.Add(float64((i * 13) % 640))
		b.Add(float64((i*7)%320 + 100))
		c.Add(float64(i % 40)) // narrow support
	}
	c.AddN(5_000, 25) // clamped into the top bin
	return []*Histogram{a, b, c, empty}
}

func TestCountKernelsMatchFreqDomain(t *testing.T) {
	t.Parallel()
	hs := kernelFixtures()
	const tol = 1e-12
	for i, ha := range hs {
		for j, hb := range hs {
			fa, fb := ha.Freqs(), hb.Freqs()
			ca, cb := ha.CountsView(), hb.CountsView()
			if cnt, freq := CosineCounts(ca, cb), Cosine(fa, fb); math.Abs(freq-cnt) > tol {
				t.Errorf("pair (%d,%d) cosine: count domain %v, freq domain %v", i, j, cnt, freq)
			}
		}
	}
}

func TestCountKernelLengthMismatch(t *testing.T) {
	t.Parallel()
	a := []uint64{1, 2, 3}
	b := []uint64{1, 2}
	if CosineCounts(a, b) != 0 || DotCounts(a, b) != 0 {
		t.Fatal("length mismatch should yield 0")
	}
}

func TestCosineCountsNormedPrecomputed(t *testing.T) {
	t.Parallel()
	hs := kernelFixtures()
	for _, ha := range hs {
		for _, hb := range hs {
			ca, cb := ha.CountsView(), hb.CountsView()
			want := CosineCounts(ca, cb)
			got := CosineCountsNormed(ca, cb, CountNorm(ca), CountNorm(cb))
			if got != want {
				t.Errorf("CosineCountsNormed %v != CosineCounts %v", got, want)
			}
		}
	}
}

func TestAppendFreqsMatchesFreqsAndIsAllocFree(t *testing.T) {
	for _, h := range kernelFixtures() {
		want := h.Freqs()
		scratch := make([]float64, 0, h.Bins())
		got := h.AppendFreqs(scratch)
		if len(got) != len(want) {
			t.Fatalf("AppendFreqs length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] { // bit-identical
				t.Fatalf("bin %d: %v != %v", i, got[i], want[i])
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			scratch = h.AppendFreqs(scratch[:0])
		})
		if allocs != 0 {
			t.Fatalf("AppendFreqs into warm scratch allocated %v times", allocs)
		}
	}
}

func TestCountsViewAliasesLiveCounts(t *testing.T) {
	t.Parallel()
	h := New(4, 1)
	v := h.CountsView()
	h.Add(2.5)
	if v[2] != 1 {
		t.Fatal("CountsView does not alias the live counts")
	}
	if len(v) != h.Bins() {
		t.Fatalf("CountsView length %d, want %d", len(v), h.Bins())
	}
}
