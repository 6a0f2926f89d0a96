package core

import (
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
)

// sliceCandidatesIn is the seed's window-then-extract implementation of
// CandidatesIn, kept as the oracle for the streaming single-pass version.
func sliceCandidatesIn(validation *capture.Trace, window time.Duration, cfg Config) []Candidate {
	var out []Candidate
	for wi, wtr := range Windows(validation, window) {
		sigs := Extract(wtr, cfg)
		for _, addr := range sortedAddrs(sigs) {
			out = append(out, Candidate{Addr: addr, Window: wi, Sig: sigs[addr]})
		}
	}
	return out
}

// gapTrace builds a trace with device activity, an entirely silent
// window in the middle, boundary-exact timestamps, bad-FCS frames and
// unattributable control frames.
func gapTrace() *capture.Trace {
	tr := &capture.Trace{Name: "gap"}
	add := func(t int64, sender dot11.Addr, class dot11.Class, fcsOK bool) {
		tr.Records = append(tr.Records, capture.Record{
			T: t, Sender: sender, Receiver: apX, Class: class,
			Size: 200, RateMbps: 24, FCSOK: fcsOK,
		})
	}
	// Window 0: [0, 60 s) — A active, one corrupt frame, one ACK.
	for i := 0; i < 80; i++ {
		add(int64(i)*700_000, staA, dot11.ClassData, true)
	}
	add(56_500_000, staA, dot11.ClassData, false)
	add(57_000_000, dot11.ZeroAddr, dot11.ClassACK, true)
	// One record exactly on the [60 s] boundary: must open window 1.
	add(60_000_000, staC, dot11.ClassData, true)
	for i := 1; i < 70; i++ {
		add(60_000_000+int64(i)*800_000, staC, dot11.ClassData, true)
	}
	// Windows [120 s, 180 s) silent; activity resumes in [180 s, 240 s).
	for i := 0; i < 60; i++ {
		add(180_000_000+int64(i)*900_000, staA, dot11.ClassQoSData, true)
		add(180_000_100+int64(i)*900_000, staC, dot11.ClassData, true)
	}
	return tr
}

func TestStreamingCandidatesMatchSliceBased(t *testing.T) {
	t.Parallel()
	traces := map[string]*capture.Trace{
		"gap":     gapTrace(),
		"fixture": compiledFixtureTrace(5, 4_000),
		"single":  figure1Trace(),
	}
	windows := []time.Duration{time.Minute, 7 * time.Second, 0, -time.Second, 24 * time.Hour}
	params := []Param{ParamInterArrival, ParamSize, ParamMediumAccess}
	for name, tr := range traces {
		for _, w := range windows {
			for _, p := range params {
				cfg := Config{Param: p, MinObservations: 10}
				want := sliceCandidatesIn(tr, w, cfg)
				got := CandidatesIn(tr, w, cfg)
				if len(got) != len(want) {
					t.Fatalf("%s w=%v p=%v: %d candidates, want %d", name, w, p, len(got), len(want))
				}
				for i := range want {
					if got[i].Addr != want[i].Addr || got[i].Window != want[i].Window {
						t.Fatalf("%s w=%v p=%v cand %d: got (%x, w%d), want (%x, w%d)",
							name, w, p, i, got[i].Addr, got[i].Window, want[i].Addr, want[i].Window)
					}
					// Signatures must be observation-for-observation equal.
					if got[i].Sig.Observations() != want[i].Sig.Observations() {
						t.Fatalf("%s w=%v p=%v cand %d: %d observations, want %d",
							name, w, p, i, got[i].Sig.Observations(), want[i].Sig.Observations())
					}
					for _, class := range want[i].Sig.Classes() {
						wh, gh := want[i].Sig.Hist(class), got[i].Sig.Hist(class)
						if gh == nil {
							t.Fatalf("%s cand %d: class %v missing", name, i, class)
						}
						for b := 0; b < wh.Bins(); b++ {
							if wh.Count(b) != gh.Count(b) {
								t.Fatalf("%s cand %d class %v bin %d: %d, want %d",
									name, i, class, b, gh.Count(b), wh.Count(b))
							}
						}
					}
				}
			}
		}
	}
}

func TestCandidatesInEmptyTrace(t *testing.T) {
	t.Parallel()
	if got := CandidatesIn(&capture.Trace{}, time.Minute, Config{Param: ParamSize}); got != nil {
		t.Fatalf("empty trace candidates = %v", got)
	}
}

func TestCandidatesInNonPositiveWindow(t *testing.T) {
	t.Parallel()
	tr := gapTrace()
	cfg := Config{Param: ParamSize, MinObservations: 10}
	for _, w := range []time.Duration{0, -time.Minute} {
		cands := CandidatesIn(tr, w, cfg)
		if len(cands) == 0 {
			t.Fatalf("window %v yielded no candidates", w)
		}
		for _, c := range cands {
			if c.Window != 0 {
				t.Fatalf("window %v: candidate in window %d, want 0 (whole trace)", w, c.Window)
			}
		}
	}
}

func TestWindowsBoundaryRecord(t *testing.T) {
	t.Parallel()
	tr := &capture.Trace{Records: []capture.Record{
		{T: 0, Sender: staA, Class: dot11.ClassData, FCSOK: true},
		{T: 59_999_999, Sender: staA, Class: dot11.ClassData, FCSOK: true},
		{T: 60_000_000, Sender: staA, Class: dot11.ClassData, FCSOK: true}, // exactly on the edge
		{T: 60_000_001, Sender: staA, Class: dot11.ClassData, FCSOK: true},
	}}
	wins := Windows(tr, time.Minute)
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	if len(wins[0].Records) != 2 || len(wins[1].Records) != 2 {
		t.Fatalf("window sizes = %d/%d, want 2/2 (boundary record belongs to the later window)",
			len(wins[0].Records), len(wins[1].Records))
	}
	if wins[1].Records[0].T != 60_000_000 {
		t.Fatalf("second window starts at %d", wins[1].Records[0].T)
	}
}

// TestSplitWallClockAnchor pins the anchoring fix: a trace whose
// timestamps start at a large wall-clock µs value (every real pcap)
// must still get a refDur-long training prefix, not an empty one.
func TestSplitWallClockAnchor(t *testing.T) {
	t.Parallel()
	const base = int64(1_700_000_000_000_000) // ≈ 2023 in unix µs
	tr := &capture.Trace{Records: []capture.Record{
		{T: base}, {T: base + 30_000_000}, {T: base + 59_999_999},
		{T: base + 60_000_000}, {T: base + 90_000_000},
	}}
	train, valid := Split(tr, time.Minute)
	if len(train.Records) != 3 {
		t.Fatalf("train records = %d, want 3 (prefix anchored at the first record)", len(train.Records))
	}
	if len(valid.Records) != 2 || valid.Records[0].T != base+60_000_000 {
		t.Fatalf("validation records = %+v", valid.Records)
	}
	// Rebasing the same trace to zero must split identically.
	zero := &capture.Trace{Records: make([]capture.Record, len(tr.Records))}
	for i, r := range tr.Records {
		r.T -= base
		zero.Records[i] = r
	}
	ztrain, zvalid := Split(zero, time.Minute)
	if len(ztrain.Records) != len(train.Records) || len(zvalid.Records) != len(valid.Records) {
		t.Fatalf("rebased split differs: %d/%d vs %d/%d",
			len(ztrain.Records), len(zvalid.Records), len(train.Records), len(valid.Records))
	}
}

// TestWindowAccumulatorResults checks the streaming window metadata the
// batch adapter discards: indices, bounds, frame counts and the
// below-minimum drop reporting.
func TestWindowAccumulatorResults(t *testing.T) {
	t.Parallel()
	tr := gapTrace()
	cfg := Config{Param: ParamSize, MinObservations: 10}
	var results []*WindowResult
	acc := NewWindowAccumulator(time.Minute, cfg, func(w *WindowResult) {
		results = append(results, w)
	})
	for i := range tr.Records {
		acc.Push(&tr.Records[i])
	}
	if got := acc.LiveSenders(); got != 2 {
		t.Fatalf("live senders before flush = %d, want 2 (A and C active)", got)
	}
	acc.Flush()
	if acc.LiveSenders() != 0 {
		t.Fatalf("live senders after flush = %d", acc.LiveSenders())
	}
	if len(results) != 3 || acc.WindowsClosed() != 3 {
		t.Fatalf("windows = %d (closed %d), want 3 non-empty windows", len(results), acc.WindowsClosed())
	}
	wantStarts := []int64{0, 60_000_000, 180_000_000}
	for i, w := range results {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if w.Start != wantStarts[i] || w.End != w.Start+60_000_000 {
			t.Fatalf("window %d bounds [%d, %d), want start %d", i, w.Start, w.End, wantStarts[i])
		}
		if w.Frames == 0 {
			t.Fatalf("window %d reports zero frames", i)
		}
	}
	// Window 0: A clears the minimum; the bad-FCS frame and the ACK are
	// scanned but never attributed, so no dropped senders appear.
	if len(results[0].Candidates) != 1 || len(results[0].Dropped) != 0 {
		t.Fatalf("window 0: %d candidates / %d dropped, want 1/0",
			len(results[0].Candidates), len(results[0].Dropped))
	}
	// A sparse sender below the minimum must surface in Dropped.
	short := &capture.Trace{Records: []capture.Record{
		{T: 0, Sender: staA, Class: dot11.ClassData, Size: 100, RateMbps: 24, FCSOK: true},
		{T: 1_000, Sender: staA, Class: dot11.ClassData, Size: 100, RateMbps: 24, FCSOK: true},
	}}
	var dropped []DroppedSender
	acc = NewWindowAccumulator(time.Minute, cfg, func(w *WindowResult) {
		dropped = append(dropped, w.Dropped...)
	})
	for i := range short.Records {
		acc.Push(&short.Records[i])
	}
	acc.Flush()
	if len(dropped) != 1 || dropped[0].Addr != staA || dropped[0].Observations != 2 {
		t.Fatalf("dropped = %+v, want staA with 2 observations", dropped)
	}
}

func TestSplitEdgeCases(t *testing.T) {
	t.Parallel()
	empty := &capture.Trace{}
	train, valid := Split(empty, time.Minute)
	if len(train.Records) != 0 || len(valid.Records) != 0 {
		t.Fatal("splitting an empty trace produced records")
	}
	tr := &capture.Trace{Records: []capture.Record{
		{T: 0}, {T: 59_999_999}, {T: 60_000_000},
	}}
	train, valid = Split(tr, time.Minute)
	if len(train.Records) != 2 {
		t.Fatalf("train records = %d, want 2 (boundary record goes to validation)", len(train.Records))
	}
	if len(valid.Records) != 1 || valid.Records[0].T != 60_000_000 {
		t.Fatalf("validation records = %+v", valid.Records)
	}
}

// Windows partitions a trace into consecutive detection windows of the
// given size, anchored at the trace's first record — the naive oracle
// the tests check CandidatesIn's streamed windowing against. Empty windows are
// skipped. A non-positive window yields the whole trace as one window.
func Windows(tr *capture.Trace, window time.Duration) []*capture.Trace {
	if len(tr.Records) == 0 {
		return nil
	}
	w := window.Microseconds()
	if w <= 0 {
		return []*capture.Trace{tr}
	}
	start := tr.Records[0].T
	end := tr.Records[len(tr.Records)-1].T
	var out []*capture.Trace
	for t := start; t <= end; t += w {
		s := tr.Slice(t, t+w)
		if len(s.Records) > 0 {
			out = append(out, s)
		}
	}
	return out
}
