package core

import (
	"math/rand"
	"testing"

	"dot11fp/internal/dot11"
)

// Synthetic large-database generator for the scale benchmarks and the
// index property tests. The profile mimics what high-resolution
// inter-arrival signatures look like at deployment scale: each device
// model concentrates its mass on a handful of model-specific timing
// bins (DCF slot/SIFS multiples of its chipset), every device also
// touches a few universal bins (the protocol-mandated timings every
// card shares), and individual devices add a little private jitter —
// ~15 non-zero bins out of 16384, far sparser than dense rows assume.

const (
	synthBins  = 16384
	synthWidth = 1e-6 // 1 µs bins over ~16.4 ms
)

func synthSpec() BinSpec { return BinSpec{Width: synthWidth, Bins: synthBins} }

func synthAddr(i int) dot11.Addr {
	return dot11.Addr{0x02, 0x00, byte(i >> 16), byte(i >> 8), byte(i), 0x01}
}

// synthAdd records cnt observations at the centre of a bin. Batched
// through AddN so building 100k-reference fixtures stays fast.
func synthAdd(sig *Signature, class dot11.Class, bin, cnt int) {
	v := (float64(bin) + 0.5) * synthWidth
	h := &sig.hists[class]
	if h.Bins() == 0 {
		h.Init(sig.bins.Bins, sig.bins.Width)
		sig.nhist++
	}
	before := h.Total()
	h.AddN(sig.bins.Transform(v), uint64(cnt))
	sig.total += h.Total() - before
}

// synthModel is one device model: the signature bins its devices share.
type synthModel struct{ bins [8]int }

// synthRefSpec is one device: its model plus device-private jitter bins
// and the universal bins it touches. Kept so candidates can be derived
// from the exact device they are planted to match.
type synthRefSpec struct {
	model   *synthModel
	private [4]int
	common  [3]int
}

func newSynthRefSpec(rng *rand.Rand, m *synthModel) synthRefSpec {
	s := synthRefSpec{model: m}
	for j := range s.private {
		s.private[j] = 32 + rng.Intn(synthBins-32)
	}
	for j := range s.common {
		s.common[j] = rng.Intn(32)
	}
	return s
}

// sig materialises the device's reference signature: model bins carry
// the bulk of the mass, private and universal bins the rest.
func (s *synthRefSpec) sig() *Signature {
	sig := NewSignature(ParamInterArrival, synthSpec())
	for _, b := range s.model.bins {
		synthAdd(sig, dot11.ClassData, b, 4)
	}
	for _, b := range s.private {
		synthAdd(sig, dot11.ClassData, b, 1)
	}
	for _, b := range s.common {
		synthAdd(sig, dot11.ClassData, b, 2)
	}
	return sig
}

// synthDB builds an n-reference database (n/16 models, 16 devices each)
// plus nc candidate signatures that are perturbed clones of enrolled
// devices — the planted matches a deployment-scale matcher actually
// sees. Deterministic for a given (n, nc).
func synthDB(n, nc int, measure Measure) (*Database, []Candidate) {
	rng := rand.New(rand.NewSource(int64(n) + 1))
	models := make([]synthModel, (n+15)/16)
	for i := range models {
		for j := range models[i].bins {
			models[i].bins[j] = 32 + rng.Intn(synthBins-32)
		}
	}
	db := NewDatabase(Config{Param: ParamInterArrival, Bins: synthSpec(), MinObservations: 1}, measure)
	specs := make([]synthRefSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = newSynthRefSpec(rng, &models[i/16])
		if err := db.Add(synthAddr(i), specs[i].sig()); err != nil {
			panic(err)
		}
	}
	cands := make([]Candidate, nc)
	for i := range cands {
		src := rng.Intn(n)
		// A later observation window of the enrolled device: the same
		// model and private bins, minus one private bin, plus one fresh
		// jitter bin — a near-perfect but imperfect match.
		sig := NewSignature(ParamInterArrival, synthSpec())
		sp := &specs[src]
		for _, b := range sp.model.bins {
			synthAdd(sig, dot11.ClassData, b, 4)
		}
		for _, b := range sp.private[:3] {
			synthAdd(sig, dot11.ClassData, b, 1)
		}
		for _, b := range sp.common {
			synthAdd(sig, dot11.ClassData, b, 2)
		}
		synthAdd(sig, dot11.ClassData, 32+rng.Intn(synthBins-32), 1)
		cands[i] = Candidate{Addr: synthAddr(src), Window: 0, Sig: sig}
	}
	return db, cands
}

// TestSynthDBShape pins the generator's sparsity profile so the scale
// benchmarks keep measuring what they claim to.
func TestSynthDBShape(t *testing.T) {
	db, cands := synthDB(512, 8, MeasureCosine)
	if db.Len() != 512 {
		t.Fatalf("Len = %d, want 512", db.Len())
	}
	st := db.IndexStats()
	nnz := float64(st.Entries) / float64(st.References)
	if nnz < 8 || nnz > 20 {
		t.Fatalf("mean non-zero bins per reference = %.1f, want ~15", nnz)
	}
	if st.IndexBytes*10 >= st.DenseBytes {
		t.Fatalf("index (%d B) not ≪ dense (%d B)", st.IndexBytes, st.DenseBytes)
	}
	// Planted candidates really match their source device.
	c := db.Compile()
	for _, cand := range cands {
		best, ok := c.Best(cand.Sig)
		if !ok || best.Addr != dot11.Addr(cand.Addr) {
			t.Fatalf("candidate for %v matched %v (ok=%v)", dot11.Addr(cand.Addr), best.Addr, ok)
		}
		if best.Sim < 0.9 {
			t.Fatalf("planted match similarity %.3f, want ≥ 0.9", best.Sim)
		}
	}
}
