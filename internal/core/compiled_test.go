package core

import (
	"fmt"
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
)

// compiledFixtureTrace synthesises a multi-device, multi-class trace
// busy enough that signatures carry several frame classes with distinct
// weights.
func compiledFixtureTrace(devices, frames int) *capture.Trace {
	tr := &capture.Trace{Name: "compiled-fixture"}
	classes := []dot11.Class{dot11.ClassData, dot11.ClassQoSData, dot11.ClassNull, dot11.ClassProbeReq}
	t := int64(0)
	for i := 0; i < frames; i++ {
		d := i % devices
		var addr dot11.Addr
		addr[0] = 0x02
		addr[5] = byte(d + 1)
		t += int64(200 + (i*37)%900 + d*13)
		tr.Records = append(tr.Records, capture.Record{
			T: t, Sender: addr, Receiver: dot11.Addr{0x02, 0, 0, 0, 0, 0xff},
			Class: classes[(i+d)%len(classes)], Size: 100 + (i*29)%1300,
			RateMbps: []float64{11, 24, 54}[(i+d)%3], FCSOK: true,
		})
	}
	return tr
}

// trainedDB builds a reference database over the fixture trace.
func trainedDB(t testing.TB, m Measure) (*Database, []Candidate) {
	t.Helper()
	tr := compiledFixtureTrace(8, 6_000)
	db := NewDatabase(Config{Param: ParamInterArrival}, m)
	if err := db.Train(tr); err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("fixture trained no references")
	}
	cands := CandidatesIn(tr, 500*time.Millisecond, db.Config())
	if len(cands) == 0 {
		t.Fatal("fixture produced no candidates")
	}
	return db, cands
}

// naiveMatch is the seed's per-pair matching loop, kept as the oracle
// the compiled path must reproduce bit-for-bit.
func naiveMatch(db *Database, candidate *Signature) []Score {
	out := make([]Score, 0, len(db.order))
	for _, addr := range db.order {
		out = append(out, Score{Addr: addr, Sim: Similarity(candidate, db.refs[addr], db.measure)})
	}
	return out
}

func TestCompiledMatchBitIdenticalToNaive(t *testing.T) {
	t.Parallel()
	for _, m := range Measures {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			db, cands := trainedDB(t, m)
			cdb := db.Compile()
			var scratch MatchScratch
			for ci, c := range cands {
				want := naiveMatch(db, c.Sig)
				got := cdb.MatchInto(c.Sig, &scratch)
				if len(got) != len(want) {
					t.Fatalf("candidate %d: %d scores, want %d", ci, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] { // exact: same addr, bit-identical Sim
						t.Fatalf("candidate %d ref %d: got %+v, want %+v", ci, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestCompiledDelegationAndConveniences(t *testing.T) {
	t.Parallel()
	db, cands := trainedDB(t, MeasureCosine)
	c := cands[0]
	want := naiveMatch(db, c.Sig)

	// Database.Match delegates to the compiled snapshot.
	got := db.Match(c.Sig)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Match[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Best and Above agree with the naive definitions.
	bestWant := Score{Sim: -1}
	for _, s := range want {
		if s.Sim > bestWant.Sim {
			bestWant = s
		}
	}
	if best, ok := db.Best(c.Sig); !ok || best != bestWant {
		t.Fatalf("Best = %+v ok=%v, want %+v", best, ok, bestWant)
	}
	thr := bestWant.Sim
	above := db.Above(c.Sig, thr)
	var aboveWant []Score
	for _, s := range want {
		if s.Sim >= thr {
			aboveWant = append(aboveWant, s)
		}
	}
	if fmt.Sprint(above) != fmt.Sprint(aboveWant) {
		t.Fatalf("Above = %+v, want %+v", above, aboveWant)
	}
}

func TestCompiledMatchAll(t *testing.T) {
	t.Parallel()
	db, cands := trainedDB(t, MeasureCosine)
	cdb := db.Compile()
	rows := cdb.MatchAll(cands)
	if len(rows) != len(cands) {
		t.Fatalf("MatchAll rows = %d, want %d", len(rows), len(cands))
	}
	for i, c := range cands {
		want := naiveMatch(db, c.Sig)
		for j := range want {
			if rows[i][j] != want[j] {
				t.Fatalf("row %d ref %d: got %+v, want %+v", i, j, rows[i][j], want[j])
			}
		}
	}
}

// TestCompiledStreamForms pins the streamed batch forms to the
// returning ones: every row once, in index order, bit-identical, for
// every worker count.
func TestCompiledStreamForms(t *testing.T) {
	t.Parallel()
	db, cands := trainedDB(t, MeasureCosine)
	cdb := db.Compile()
	full := cdb.MatchAllWorkers(cands, 1)
	top := cdb.TopKAllWorkers(cands, 3, 1)
	for _, workers := range []int{0, 1, 2, 4} {
		next := 0
		cdb.MatchAllStream(cands, workers, func(i int, row []Score) {
			if i != next {
				t.Fatalf("workers=%d: MatchAllStream emitted row %d, want %d", workers, i, next)
			}
			next++
			sameScores(t, "MatchAllStream", full[i], row)
		})
		if next != len(cands) {
			t.Fatalf("workers=%d: MatchAllStream emitted %d rows, want %d", workers, next, len(cands))
		}
		next = 0
		cdb.TopKAllStream(cands, 3, workers, func(i int, row []Score) {
			if i != next {
				t.Fatalf("workers=%d: TopKAllStream emitted row %d, want %d", workers, i, next)
			}
			next++
			sameScores(t, "TopKAllStream", top[i], row)
		})
		if next != len(cands) {
			t.Fatalf("workers=%d: TopKAllStream emitted %d rows, want %d", workers, next, len(cands))
		}
	}
}

func TestCompileCacheInvalidatedByAdd(t *testing.T) {
	t.Parallel()
	db, cands := trainedDB(t, MeasureCosine)
	first := db.Compile()
	if db.Compile() != first {
		t.Fatal("Compile did not cache the snapshot")
	}
	extra := dot11.MustParseAddr("02:11:22:33:44:55")
	sig := NewSignature(ParamInterArrival, db.Config().Bins)
	for i := 0; i < 60; i++ {
		sig.Add(dot11.ClassData, float64(100+i%7*10))
	}
	if err := db.Add(extra, sig); err != nil {
		t.Fatal(err)
	}
	second := db.Compile()
	if second == first {
		t.Fatal("Add did not invalidate the compiled snapshot")
	}
	if second.Len() != first.Len()+1 {
		t.Fatalf("recompiled Len = %d, want %d", second.Len(), first.Len()+1)
	}
	if got := db.Match(cands[0].Sig); len(got) != second.Len() {
		t.Fatalf("Match after Add returned %d scores, want %d", len(got), second.Len())
	}
}

func TestCompileCacheInvalidatedBySignatureMutation(t *testing.T) {
	t.Parallel()
	db, cands := trainedDB(t, MeasureCosine)

	// Worst-case aliasing order: hold the signature pointer, let Match
	// build and cache the snapshot, then mutate behind the cache. The
	// observation-total freshness check must still catch it.
	target := db.Devices()[0]
	held := db.Signature(target)
	before := db.Match(cands[0].Sig)

	extra := NewSignature(ParamInterArrival, db.Config().Bins)
	for i := 0; i < 500; i++ {
		extra.Add(dot11.ClassProbeResp, float64(2_000+i))
	}
	if err := held.Merge(extra); err != nil {
		t.Fatal(err)
	}
	after := db.Match(cands[0].Sig)
	want := naiveMatch(db, cands[0].Sig)
	for i := range want {
		if after[i] != want[i] {
			t.Fatalf("post-mutation Match[%d] = %+v, want %+v (stale snapshot?)", i, after[i], want[i])
		}
	}
	if after[0] == before[0] {
		t.Fatal("mutation did not change the target's similarity — test fixture too weak")
	}
}

func TestUnknownMeasureFallsBackToCosine(t *testing.T) {
	t.Parallel()
	// NewDatabase does not validate the measure, so an out-of-range
	// value must behave like Measure.fn's cosine default in both the
	// naive and compiled paths instead of panicking.
	db, cands := trainedDB(t, Measure(9))
	want := naiveMatch(db, cands[0].Sig)
	got := db.Match(cands[0].Sig)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Match[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	ref := Score{Sim: -1}
	for _, s := range want {
		if s.Sim > ref.Sim {
			ref = s
		}
	}
	if ref.Sim <= 0 {
		t.Fatal("unknown measure produced no positive cosine scores")
	}
}

func TestAddRejectsBinShapeMismatch(t *testing.T) {
	t.Parallel()
	db := NewDatabase(Config{Param: ParamInterArrival}, MeasureCosine)
	sig := NewSignature(ParamInterArrival, BinSpec{Width: 5, Bins: 16})
	for i := 0; i < 60; i++ {
		sig.Add(dot11.ClassData, float64(i))
	}
	if err := db.Add(staA, sig); err == nil {
		t.Fatal("Add accepted a signature with a mismatched bin shape")
	}
}

// TestMatchIntoZeroAlloc backs MatchInto's //fp:hotpath annotation:
// the full vector for every measure — alone and as the members of a
// fused ensemble — whose scatter accumulator must be warmed scratch,
// not a per-call allocation.
func TestMatchIntoZeroAlloc(t *testing.T) {
	zeroAllocs := func(t *testing.T, label string, f func()) {
		t.Helper()
		f() // warm the buffers
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Fatalf("%s allocated %v times per run, want 0", label, allocs)
		}
	}
	for _, measure := range allMeasures {
		t.Run("indexed/"+measure.String(), func(t *testing.T) {
			db, cands := trainedDB(t, measure)
			cdb := db.Compile()
			var scratch MatchScratch
			zeroAllocs(t, "MatchInto", func() {
				cdb.MatchInto(nil, &scratch)
				for _, c := range cands {
					if got := cdb.MatchInto(c.Sig, &scratch); len(got) != cdb.Len() {
						t.Fatal("bad match vector")
					}
				}
			})
		})
		t.Run("ensemble-indexed/"+measure.String(), func(t *testing.T) {
			tr := compiledFixtureTrace(8, 6_000)
			e, err := NewEnsemble(measure, Config{Param: ParamInterArrival}, Config{Param: ParamSize})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Train(tr); err != nil {
				t.Fatal(err)
			}
			ce := e.Compile()
			if ce.Len() == 0 {
				t.Fatal("ensemble trained no references")
			}
			cands := e.CandidatesIn(tr, 500*time.Millisecond)
			if len(cands) == 0 {
				t.Fatal("no candidates")
			}
			var scratch EnsembleScratch
			zeroAllocs(t, "CompiledEnsemble.MatchInto", func() {
				for _, c := range cands {
					if fused, _ := ce.MatchInto(c, &scratch); len(fused) != ce.Len() {
						t.Fatal("bad fused vector")
					}
				}
			})
		})
	}
}

func TestCompiledEmptyAndNil(t *testing.T) {
	t.Parallel()
	db := NewDatabase(Config{Param: ParamSize}, 0)
	cdb := db.Compile()
	if got := cdb.Match(nil); len(got) != 0 {
		t.Fatalf("empty db Match = %+v", got)
	}
	if _, ok := cdb.Best(NewSignature(ParamSize, DefaultBins(ParamSize))); ok {
		t.Fatal("Best on empty compiled db reported ok")
	}
	if rows := cdb.MatchAll(nil); len(rows) != 0 {
		t.Fatalf("MatchAll(nil) = %v", rows)
	}

	// A nil candidate scores zero against everything, like the naive path.
	db2, _ := trainedDB(t, MeasureCosine)
	for i, s := range db2.Match(nil) {
		if s.Sim != 0 {
			t.Fatalf("nil candidate score %d = %v", i, s.Sim)
		}
	}
}

// TestTopKIntoZeroAlloc pins the selection entry point's steady state:
// with a warm scratch, TopKInto allocates nothing per candidate, under
// every measure.
func TestTopKIntoZeroAlloc(t *testing.T) {
	for _, measure := range allMeasures {
		db, cands := trainedDB(t, measure)
		cdb := db.Compile()
		var scratch MatchScratch
		f := func() {
			for _, k := range []int{1, 5} {
				for _, c := range cands {
					if got := cdb.TopKInto(c.Sig, k, &scratch); len(got) != min(k, cdb.Len()) {
						t.Fatal("bad top-k row")
					}
				}
			}
		}
		f() // warm the buffers
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Fatalf("%v: TopKInto allocated %v times per run, want 0", measure, allocs)
		}
	}
}
