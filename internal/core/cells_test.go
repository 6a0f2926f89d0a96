package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// TestSignatureSizeClass pins the sizes the live path allocates by. One
// Signature is allocated per admitted sender per member per window, so
// a Signature grown past the runtime's 704-byte size class costs every
// window of every sender; a field added to Histogram counts thirteen
// times over, once per inline frame-class slot. The cell form of loaded
// references hangs off one pointer for this reason.
func TestSignatureSizeClass(t *testing.T) {
	t.Logf("Signature %d B, Histogram %d B", unsafe.Sizeof(Signature{}), unsafe.Sizeof(histogram.Histogram{}))
	if got := unsafe.Sizeof(Signature{}); got > 704 {
		t.Errorf("Signature is %d B, past the 704-byte size class", got)
	}
	if got := unsafe.Sizeof(histogram.Histogram{}); got != 48 {
		t.Errorf("Histogram is %d B, want 48 (13 of them sit inline in every Signature)", got)
	}
}

// reloaded returns db's binary round trip: its sparse classes load in
// cell form.
func reloaded(t testing.TB, db *Database) *Database {
	t.Helper()
	out, err := LoadBinary(bytes.NewReader(savedBinary(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reloadedEnsemble is reloaded for an ensemble.
func reloadedEnsemble(t testing.TB, e *Ensemble) *Ensemble {
	t.Helper()
	out, err := LoadBinaryEnsemble(bytes.NewReader(savedBinary(t, e)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// densified returns a copy of db whose signatures are all dense.
func densified(db *Database) *Database {
	out := db.Clone()
	for _, sig := range out.refs {
		sig.densify()
	}
	return out
}

// cellRows counts the class rows db's signatures hold in cell form.
func cellRows(db *Database) int {
	n := 0
	for _, sig := range db.refs {
		if sig.cells != nil {
			n += len(*sig.cells)
		}
	}
	return n
}

// sameBits reports whether two float slices agree bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestCompileCellFormBitIdentical pins the compile half of the cell
// form: compiling a loaded database (cells walked directly) must give
// exactly the snapshot of its densified copy (zeros skipped) — the same
// postings, CSR rows, norms and weights under math.Float64bits — for
// every measure.
func TestCompileCellFormBitIdentical(t *testing.T) {
	for _, m := range allMeasures {
		trained, _ := trainedDB(t, m)
		wide := wideDB(t)
		wide.measure = m
		for _, db := range []*Database{trained, wide} {
			loaded := reloaded(t, db)
			if cellRows(loaded) == 0 {
				t.Fatalf("%v: the loaded fixture holds no cell rows", m)
			}
			got, want := loaded.Compile(), densified(loaded).Compile()
			if !slices.Equal(got.addrs, want.addrs) || !slices.Equal(got.totals, want.totals) || got.stats != want.stats {
				t.Fatalf("%v: reference order, totals or stats differ: %+v vs %+v", m, got.stats, want.stats)
			}
			for ci := range got.classes {
				g, w := &got.classes[ci], &want.classes[ci]
				if !sameBits(g.weights, w.weights) || !sameBits(g.norms, w.norms) ||
					!slices.Equal(g.postStart, w.postStart) || !slices.Equal(g.postRef, w.postRef) || !sameBits(g.postVal, w.postVal) ||
					!slices.Equal(g.rowStart, w.rowStart) || !slices.Equal(g.rowBin, w.rowBin) || !sameBits(g.rowVal, w.rowVal) ||
					!slices.Equal(g.classRefs, w.classRefs) {
					t.Fatalf("%v: class %v compiles differently from cells than from dense counts", m, dot11.Class(ci))
				}
			}
		}
	}
}

// TestCellFormMutatorsDensify pins the cell form's ownership rules: a
// clone shares the cells, reads (Hist included) write nothing, and the
// first Add or Merge densifies only the signature it mutates, so the
// loaded original and its other clones keep their counts.
func TestCellFormMutatorsDensify(t *testing.T) {
	loaded := reloaded(t, wideDB(t))
	addr := loaded.order[0]
	orig := loaded.refs[addr]
	if orig.cells == nil {
		t.Fatal("the loaded fixture is not in cell form")
	}
	before := savedBinary(t, loaded)
	obs := orig.Observations()

	h := orig.Hist(dot11.ClassData)
	h.Add(1) // a dense copy: the signature must not see it
	if orig.cells == nil || orig.Observations() != obs {
		t.Fatal("Hist wrote to a cell-form signature")
	}

	added, merged := orig.Clone(), orig.Clone()
	if added.cells != orig.cells {
		t.Fatal("Clone copied the immutable cells")
	}
	added.Add(dot11.ClassData, 7)
	if err := merged.Merge(orig); err != nil {
		t.Fatal(err)
	}
	if added.cells != nil || merged.cells != nil {
		t.Fatal("a mutated signature kept its cell form")
	}
	if added.Observations() != obs+1 || merged.Observations() != 2*obs {
		t.Fatalf("observations after Add %d, after Merge %d; want %d and %d",
			added.Observations(), merged.Observations(), obs+1, 2*obs)
	}
	for _, class := range orig.Classes() {
		want := orig.Hist(class).CountsView()
		for j, c := range merged.Hist(class).CountsView() {
			if c != 2*want[j] {
				t.Fatalf("class %v bin %d: merged count %d, want %d", class, j, c, 2*want[j])
			}
		}
	}
	if orig.cells == nil || !bytes.Equal(before, savedBinary(t, loaded)) {
		t.Fatal("mutating clones changed the loaded original")
	}
}

// TestSignaturesIntoZeroAlloc pins the trainer's per-candidate reference
// lookup at zero allocations, for a known and an unknown device.
func TestSignaturesIntoZeroAlloc(t *testing.T) {
	e, err := NewEnsemble(MeasureCosine, Config{Param: ParamSize}, Config{Param: ParamRate}, Config{Param: ParamInterArrival})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(ensembleTrace()); err != nil {
		t.Fatal(err)
	}
	known := e.dbs[0].order[0]
	dst := make([]*Signature, 0, len(e.dbs))
	for _, tc := range []struct {
		name  string
		addr  dot11.Addr
		found bool
	}{{"known", known, true}, {"unknown", dot11.LocalAddr(999), false}} {
		if got := e.SignaturesInto(dst, tc.addr); (got != nil) != tc.found || (tc.found && len(got) != len(e.dbs)) {
			t.Fatalf("%s: SignaturesInto returned %d signatures", tc.name, len(got))
		}
		if allocs := testing.AllocsPerRun(100, func() { e.SignaturesInto(dst, tc.addr) }); allocs != 0 {
			t.Errorf("%s: %.0f allocs per lookup, want 0", tc.name, allocs)
		}
	}
}

// TestLoadBinaryFullHistogramMemory is the hostile counterpart of the
// cell form: a histogram with every bin non-zero would cost more as
// cells (12 B each) than dense (8 B a bin), so the loader must keep it
// dense. The loaded database's live heap stays within the dense counts
// plus a small constant. (Not parallel: it reads the process-wide heap.)
func TestLoadBinaryFullHistogramMemory(t *testing.T) {
	const bins = 1 << 16
	spec := BinSpec{Bins: bins, Width: 1}
	db := NewDatabase(Config{Param: ParamSize, Bins: spec, MinObservations: 1}, MeasureCosine)
	sig := NewSignature(ParamSize, spec)
	for j := 0; j < bins; j++ {
		sig.Add(dot11.ClassData, float64(j))
	}
	if err := db.Add(dot11.LocalAddr(1), sig); err != nil {
		t.Fatal(err)
	}
	data := savedBinary(t, db)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := LoadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const dense, slack = bins * 8, 64 << 10
	t.Logf("live heap of the loaded database: %d B (dense counts %d B, as cells %d B)", live, dense, bins*12)
	if live > dense+slack {
		t.Errorf("a full %d-bin histogram loads into %d B of live heap, want ≤ %d (dense) + %d", bins, live, dense, slack)
	}
	if cellRows(loaded) != 0 {
		t.Error("a full histogram was kept in cell form")
	}
	if !bytes.Equal(data, savedBinary(t, loaded)) {
		t.Error("re-save differs")
	}
	runtime.KeepAlive(loaded)
}
