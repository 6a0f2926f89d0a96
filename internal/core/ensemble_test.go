package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
)

// ensembleTrace builds two devices distinguishable only by combining
// parameters: same sizes but different rates for one pair of windows,
// and vice versa.
func ensembleTrace() *capture.Trace {
	tr := &capture.Trace{Name: "ens"}
	durUs := (20 * time.Minute).Microseconds()
	for t := int64(0); t < durUs; t += 400_000 {
		// Device 1: size 200 at 54 Mb/s. Device 2: size 200 at 11 Mb/s
		// (same size histogram, different rate histogram).
		tr.Records = append(tr.Records,
			capture.Record{T: t, Sender: dot11.LocalAddr(1), Receiver: dot11.LocalAddr(99),
				Class: dot11.ClassData, Size: 200, RateMbps: 54, FCSOK: true},
			capture.Record{T: t + 3_000, Sender: dot11.LocalAddr(2), Receiver: dot11.LocalAddr(99),
				Class: dot11.ClassData, Size: 200, RateMbps: 11, FCSOK: true},
		)
	}
	return tr
}

func TestEnsembleConstruction(t *testing.T) {
	t.Parallel()
	if _, err := NewEnsemble(MeasureCosine); err == nil {
		t.Fatal("empty ensemble accepted")
	}
	if _, err := NewEnsemble(MeasureCosine,
		Config{Param: ParamSize}, Config{Param: ParamSize}); err == nil {
		t.Fatal("duplicate parameter accepted")
	}
	e, err := NewEnsemble(0, Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		t.Fatal(err)
	}
	ps := e.Params()
	if len(ps) != 2 || ps[0] != ParamSize || ps[1] != ParamRate {
		t.Fatalf("Params = %v", ps)
	}
}

func TestEnsembleCombinesEvidence(t *testing.T) {
	t.Parallel()
	tr := ensembleTrace()
	e, err := NewEnsemble(MeasureCosine,
		Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		t.Fatal(err)
	}
	train, valid := Split(tr, 5*time.Minute)
	if err := e.Train(train); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 2 {
		t.Fatalf("ensemble devices = %d, want 2", e.Len())
	}
	cands := e.CandidatesIn(valid, 5*time.Minute)
	if len(cands) == 0 {
		t.Fatal("no multi-candidates")
	}
	for _, c := range cands {
		scores := e.Match(c)
		if len(scores) != 2 {
			t.Fatalf("match vector = %d entries", len(scores))
		}
		best, ok := e.Best(c)
		if !ok {
			t.Fatal("Best failed")
		}
		if best.Addr != dot11.Addr(c.Addr) {
			t.Fatalf("window %d: %v identified as %v", c.Window, dot11.Addr(c.Addr), best.Addr)
		}
		// Size similarity alone cannot separate the two devices (both
		// send 200-byte frames): the margin must come from the rate
		// member. Verify the combined margin is strict.
		var trueSim, otherSim float64
		for _, s := range scores {
			if s.Addr == dot11.Addr(c.Addr) {
				trueSim = s.Sim
			} else {
				otherSim = s.Sim
			}
		}
		if trueSim <= otherSim {
			t.Fatalf("combined similarity did not separate: true %v vs other %v", trueSim, otherSim)
		}
		// And the gap should be about half the rate gap (mean of a
		// ~equal size-sim and a disjoint rate-sim).
		if otherSim < 0.3 || otherSim > 0.7 {
			t.Errorf("impostor combined sim = %v, want ≈0.5 (size matches, rate disjoint)", otherSim)
		}
	}
}

func TestEnsembleMismatchedCandidate(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(MeasureCosine, Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Match(MultiCandidate{Sigs: []*Signature{nil}}); got != nil {
		t.Fatalf("mismatched candidate match = %v", got)
	}
	fused, perParam := e.Compile().MatchAllWorkers([]MultiCandidate{{Sigs: []*Signature{nil}}}, 1)
	if fused[0] != nil || perParam[0] != nil {
		t.Fatalf("mismatched candidate batch rows = %v, %v; want nil", fused[0], perParam[0])
	}
}

// partialTrace builds a trace where device 2 transmits only the very
// first frame: its frame size is observable (every frame carries one)
// but its inter-arrival time never is (the first frame of a capture has
// no inter-arrival context), so device 2 becomes a partially-known
// device under a (size, iat) ensemble with 1-observation minimums.
func partialTrace() *capture.Trace {
	tr := &capture.Trace{Name: "partial"}
	tr.Records = append(tr.Records, capture.Record{
		T: 0, Sender: dot11.LocalAddr(2), Receiver: dot11.LocalAddr(99),
		Class: dot11.ClassData, Size: 800, RateMbps: 11, FCSOK: true,
	})
	for i := 1; i <= 100; i++ {
		tr.Records = append(tr.Records, capture.Record{
			T: int64(i) * 500_000, Sender: dot11.LocalAddr(1), Receiver: dot11.LocalAddr(99),
			Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		})
	}
	return tr
}

// TestEnsemblePartialReporting pins the partially-known-device fix: a
// device that clears MinObservations in some members but not all is
// excluded from Len (it can never match) but reported by Partial — not
// silently enrolled-yet-unmatchable.
func TestEnsemblePartialReporting(t *testing.T) {
	t.Parallel()
	tr := partialTrace()
	e, err := NewEnsemble(MeasureCosine,
		Config{Param: ParamSize, MinObservations: 1},
		Config{Param: ParamInterArrival, MinObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(tr); err != nil {
		t.Fatal(err)
	}
	// Device 2 has one size observation but no inter-arrival one.
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only the chatty device is fully known)", e.Len())
	}
	// Len counts in place: the trainer calls it per enrollment.
	if allocs := testing.AllocsPerRun(10, func() { e.Len() }); allocs != 0 {
		t.Fatalf("Len allocated %v times per call, want 0", allocs)
	}
	partial := e.Partial()
	if len(partial) != 1 || partial[0] != dot11.LocalAddr(2) {
		t.Fatalf("Partial = %v, want [%v]", partial, dot11.LocalAddr(2))
	}
	// The compiled snapshot agrees.
	ce := e.Compile()
	if ce.Len() != 1 || len(ce.Partial()) != 1 || ce.Partial()[0] != dot11.LocalAddr(2) {
		t.Fatalf("compiled: Len=%d Partial=%v", ce.Len(), ce.Partial())
	}
	// A fully-known ensemble reports nothing (size and rate observe
	// every frame, including the first).
	full, err := NewEnsemble(MeasureCosine,
		Config{Param: ParamSize, MinObservations: 1},
		Config{Param: ParamRate, MinObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Train(tr); err != nil {
		t.Fatal(err)
	}
	if got := full.Partial(); len(got) != 0 {
		t.Fatalf("fully-known ensemble Partial = %v", got)
	}
}

// TestEnsembleCandidatesWindowEdge pins the candidate-discovery fix:
// discovery iterates the union of member extractions (not member 0's
// map), the all-members requirement stays explicit, and a sender
// observable only through later members surfaces as a dropped sender in
// the streaming result instead of silently vanishing. The edge case is
// a single-frame window: inter-arrival is undefined for the window's
// first frame, so an iat-first ensemble's member 0 never sees the
// sender at all.
func TestEnsembleCandidatesWindowEdge(t *testing.T) {
	t.Parallel()
	tr := &capture.Trace{Name: "edge"}
	winUs := (1 * time.Minute).Microseconds()
	// Window 0: device 1 sends 60 frames. Window 1: exactly one frame,
	// from device 2.
	for i := 0; i < 60; i++ {
		tr.Records = append(tr.Records, capture.Record{
			T: int64(i) * 900_000, Sender: dot11.LocalAddr(1), Receiver: dot11.LocalAddr(99),
			Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		})
	}
	tr.Records = append(tr.Records, capture.Record{
		T: winUs + 1000, Sender: dot11.LocalAddr(2), Receiver: dot11.LocalAddr(99),
		Class: dot11.ClassData, Size: 800, RateMbps: 11, FCSOK: true,
	})

	iatFirst := []Config{
		{Param: ParamInterArrival, MinObservations: 1},
		{Param: ParamSize, MinObservations: 1},
	}
	sizeFirst := []Config{iatFirst[1], iatFirst[0]}

	candidates := func(cfgs []Config) []MultiCandidate {
		e, err := NewEnsemble(MeasureCosine, cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		return e.CandidatesIn(tr, time.Minute)
	}
	a, b := candidates(iatFirst), candidates(sizeFirst)
	if len(a) != len(b) {
		t.Fatalf("candidate set depends on member order: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].Window != b[i].Window {
			t.Fatalf("candidate %d differs across member orders: %x/w%d vs %x/w%d",
				i, a[i].Addr, a[i].Window, b[i].Addr, b[i].Window)
		}
	}
	// Device 2 clears size but not iat in its single-frame window: not a
	// candidate (all-members requirement) under either order.
	for _, c := range a {
		if c.Addr == [6]byte(dot11.LocalAddr(2)) {
			t.Fatalf("partially-qualified sender emitted as candidate: %+v", c)
		}
	}
	// But the streaming result reports it dropped — observed, not hidden
	// — with its best member's observation count, regardless of member
	// order.
	for _, cfgs := range [][]Config{iatFirst, sizeFirst} {
		var dropped []DroppedSender
		acc, err := NewEnsembleAccumulator(time.Minute, cfgs, func(w *WindowResult) {
			dropped = append(dropped, w.Dropped...)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Records {
			acc.Push(&tr.Records[i])
		}
		acc.Flush()
		found := false
		for _, d := range dropped {
			if d.Addr == dot11.LocalAddr(2) {
				found = true
				if d.Observations != 1 {
					t.Fatalf("dropped sender reports %d observations, want 1 (best member)", d.Observations)
				}
			}
		}
		if !found {
			t.Fatalf("single-frame-window sender hidden from the %v-first ensemble", cfgs[0].Param)
		}
	}
}

// TestCompiledEnsembleBitIdentical pins the compiled fused path against
// first principles: the fused score is the mean of the per-pair naive
// Similarity values, bit for bit, and the per-member vectors equal each
// member database's own Match output.
func TestCompiledEnsembleBitIdentical(t *testing.T) {
	t.Parallel()
	tr := ensembleTrace()
	e, err := NewEnsemble(MeasureCosine,
		Config{Param: ParamSize}, Config{Param: ParamRate}, Config{Param: ParamInterArrival})
	if err != nil {
		t.Fatal(err)
	}
	train, valid := Split(tr, 5*time.Minute)
	if err := e.Train(train); err != nil {
		t.Fatal(err)
	}
	ce := e.Compile()
	members := e.Members()
	cands := e.CandidatesIn(valid, 5*time.Minute)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	var scratch EnsembleScratch
	for _, c := range cands {
		fused, perParam := ce.MatchInto(c, &scratch)
		if len(fused) != ce.Len() {
			t.Fatalf("fused vector = %d entries, want %d", len(fused), ce.Len())
		}
		for i, sc := range fused {
			want := 0.0
			for m, db := range members {
				want += Similarity(c.Sigs[m], db.Signature(sc.Addr), db.Measure())
			}
			want /= float64(len(members))
			if sc.Sim != want { // exact float equality: bit-identical
				t.Fatalf("fused[%d] = %v, want %v", i, sc.Sim, want)
			}
		}
		for m, db := range members {
			want := db.Match(c.Sigs[m])
			if len(perParam[m]) != len(want) {
				t.Fatalf("member %d vector = %d entries, want %d", m, len(perParam[m]), len(want))
			}
			for j := range want {
				if perParam[m][j] != want[j] {
					t.Fatalf("member %d score %d: %+v, want %+v", m, j, perParam[m][j], want[j])
				}
			}
		}
	}
}

// TestCompiledEnsembleFreshness pins the once-per-swap freshness
// contract: repeated Compile calls return the cached snapshot while the
// references are unchanged, and a member mutation is picked up by the
// next Compile.
func TestCompiledEnsembleFreshness(t *testing.T) {
	t.Parallel()
	tr := ensembleTrace()
	e, err := NewEnsemble(MeasureCosine, Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(tr); err != nil {
		t.Fatal(err)
	}
	c1 := e.Compile()
	if c2 := e.Compile(); c2 != c1 {
		t.Fatal("unchanged ensemble recompiled")
	}
	// Mutate one member through the atomic Add path.
	sigs := []*Signature{
		NewSignature(ParamSize, DefaultBins(ParamSize)),
		NewSignature(ParamRate, DefaultBins(ParamRate)),
	}
	sigs[0].Add(dot11.ClassData, 128)
	sigs[1].Add(dot11.ClassData, 54)
	if err := e.Add(dot11.LocalAddr(77), sigs); err != nil {
		t.Fatal(err)
	}
	c3 := e.Compile()
	if c3 == c1 {
		t.Fatal("mutated ensemble returned the stale snapshot")
	}
	if c3.Len() != c1.Len()+1 {
		t.Fatalf("recompiled Len = %d, want %d", c3.Len(), c1.Len()+1)
	}
}

// TestEnsembleAddAtomic pins the all-or-nothing contract of the
// trainer's promotion entry point: a rejected Add leaves every member
// untouched.
func TestEnsembleAddAtomic(t *testing.T) {
	t.Parallel()
	e, err := NewEnsemble(MeasureCosine, Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		t.Fatal(err)
	}
	good := NewSignature(ParamSize, DefaultBins(ParamSize))
	good.Add(dot11.ClassData, 128)
	addr := dot11.LocalAddr(5)
	for _, sigs := range [][]*Signature{
		{good},               // member count mismatch
		{good, nil},          // nil member
		{good, good.Clone()}, // wrong parameter for member 1
	} {
		if err := e.Add(addr, sigs); err == nil {
			t.Fatalf("Add(%d sigs) accepted", len(sigs))
		}
		for _, db := range e.Members() {
			if db.Len() != 0 {
				t.Fatalf("rejected Add mutated a member: %d refs", db.Len())
			}
		}
	}
}

// TestEnsembleBinaryRoundTrip pins the multi-database checkpoint
// container: params, measure, devices and fused scores survive a
// save/load cycle bit-identically, and corrupt containers surface the
// typed errors.
func TestEnsembleBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	tr := ensembleTrace()
	e, err := NewEnsemble(MeasureIntersection, Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	got, err := LoadBinaryEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gp, wp := got.Params(), e.Params(); len(gp) != len(wp) || gp[0] != wp[0] || gp[1] != wp[1] {
		t.Fatalf("params %v, want %v", gp, wp)
	}
	if got.Measure() != e.Measure() {
		t.Fatalf("measure %v, want %v", got.Measure(), e.Measure())
	}
	if got.Len() != e.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), e.Len())
	}
	// Fused scores bit-identical through the round trip.
	for _, c := range e.CandidatesIn(tr, 5*time.Minute) {
		want := e.Match(c)
		have := got.Match(c)
		if len(want) != len(have) {
			t.Fatalf("score vector %d, want %d", len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("score %d: %+v, want %+v", i, have[i], want[i])
			}
		}
	}
	// Corruption catalogue.
	if _, err := LoadBinaryEnsemble(bytes.NewReader(raw[:5])); !errors.Is(err, ErrBinaryDatabase) {
		t.Fatalf("truncated header error = %v", err)
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := LoadBinaryEnsemble(bytes.NewReader(bad)); !errors.Is(err, ErrBinaryDatabase) {
		t.Fatalf("bad magic error = %v", err)
	}
	bad = append([]byte(nil), raw...)
	bad[8] = 99 // container version
	if _, err := LoadBinaryEnsemble(bytes.NewReader(bad)); !errors.Is(err, ErrBinaryVersion) {
		t.Fatalf("future version error = %v", err)
	}
	bad = append([]byte(nil), raw...)
	bad[9] = 0 // member count
	if _, err := LoadBinaryEnsemble(bytes.NewReader(bad)); !errors.Is(err, ErrBinaryDatabase) {
		t.Fatalf("zero members error = %v", err)
	}
	if _, err := LoadBinaryEnsemble(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, ErrBinaryDatabase) {
		t.Fatalf("truncated member error = %v", err)
	}
}

// TestEnsembleMatchZeroAllocs pins the fused steady state: compiled
// ensemble + caller-owned scratch allocates nothing per candidate.
func TestEnsembleMatchZeroAllocs(t *testing.T) {
	tr := ensembleTrace()
	e, err := NewEnsemble(MeasureCosine, Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		t.Fatal(err)
	}
	train, valid := Split(tr, 5*time.Minute)
	if err := e.Train(train); err != nil {
		t.Fatal(err)
	}
	ce := e.Compile()
	cands := e.CandidatesIn(valid, 5*time.Minute)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	var scratch EnsembleScratch
	ce.MatchInto(cands[0], &scratch) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range cands {
			if fused, _ := ce.MatchInto(c, &scratch); len(fused) != ce.Len() {
				t.Fatal("bad fused vector")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("fused match allocated %v times per sweep, want 0", allocs)
	}
}

// TestEnsembleTopKIntoZeroAlloc pins the fused selection's steady
// state: with a warm scratch, CompiledEnsemble.TopKInto allocates
// nothing per candidate, under every measure.
func TestEnsembleTopKIntoZeroAlloc(t *testing.T) {
	tr := ensembleTrace()
	train, valid := Split(tr, 5*time.Minute)
	for _, measure := range allMeasures {
		e, err := NewEnsemble(measure, Config{Param: ParamSize}, Config{Param: ParamRate})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Train(train); err != nil {
			t.Fatal(err)
		}
		ce := e.Compile()
		cands := e.CandidatesIn(valid, 5*time.Minute)
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		var scratch EnsembleScratch
		f := func() {
			for _, k := range []int{1, 5} {
				for _, c := range cands {
					if got := ce.TopKInto(c, k, &scratch); len(got) != min(k, ce.Len()) {
						t.Fatal("bad fused top-k row")
					}
				}
			}
		}
		f() // warm the buffers
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Fatalf("%v: fused TopKInto allocated %v times per run, want 0", measure, allocs)
		}
	}
}
