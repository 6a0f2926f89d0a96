package engine_test

import (
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
)

// trainEvents separates the trainer's event stream for assertions.
type trainEvents struct {
	progress []engine.EnrollmentProgress
	enrolled []engine.DeviceEnrolled
	swapped  []engine.DBSwapped
}

func collectTrainer(te *trainEvents) engine.SinkFunc {
	return func(ev engine.Event) {
		switch ev := ev.(type) {
		case engine.EnrollmentProgress:
			te.progress = append(te.progress, ev)
		case engine.DeviceEnrolled:
			te.enrolled = append(te.enrolled, ev)
		case engine.DBSwapped:
			te.swapped = append(te.swapped, ev)
		}
	}
}

// batchTrainPerWindow is the offline equivalent of live enrollment with
// Horizon 1 + Update: the training prefix is split on the detection
// grid and each window is folded into the database, exactly as
// Database.Train documents for multi-window training.
func batchTrainPerWindow(t *testing.T, prefix *capture.Trace, window time.Duration, cfg core.Config) *core.Database {
	t.Helper()
	db := core.NewDatabase(cfg, core.MeasureCosine)
	w := window.Microseconds()
	for start := prefix.Records[0].T; start <= prefix.Records[len(prefix.Records)-1].T; start += w {
		if win := prefix.Slice(start, start+w); len(win.Records) > 0 {
			if err := db.Train(win); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// sameDB asserts two databases hold the same references in the same
// insertion order and produce bit-identical MatchAll scores over a
// probe candidate set.
func sameDB(t *testing.T, label string, got, want *core.Database, probe []core.Candidate) {
	t.Helper()
	gd, wd := got.Devices(), want.Devices()
	if len(gd) != len(wd) {
		t.Fatalf("%s: %d references, want %d", label, len(gd), len(wd))
	}
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: reference %d is %v, want %v (insertion order must match)", label, i, gd[i], wd[i])
		}
	}
	gotRows := got.Compile().MatchAll(probe)
	wantRows := want.Compile().MatchAll(probe)
	for i := range wantRows {
		for j := range wantRows[i] {
			if gotRows[i][j] != wantRows[i][j] { // exact float equality: bit-identical
				t.Fatalf("%s: probe %d score %d: %+v, want %+v", label, i, j, gotRows[i][j], wantRows[i][j])
			}
		}
	}
}

// TestTrainerLiveEqualsBatch is the subsystem's acceptance test: a
// database enrolled live from the first K windows of a stream (cold
// start, Horizon 1, Update on) matches a database batch-trained per
// window on the same prefix bit-identically — same references, same
// insertion order, same MatchAll scores on the validation remainder —
// on both the serial and the sharded engine; and the mid-stream
// hot-swaps lose no frames and emit exactly one DBSwapped per
// promotion batch.
func TestTrainerLiveEqualsBatch(t *testing.T) {
	t.Parallel()
	const window = 2 * time.Minute
	const k = 3 // enrollment horizon of the stream, in windows
	cfg := core.DefaultConfig(core.ParamInterArrival)

	for name, conference := range map[string]bool{"office": false, "conference": true} {
		tr := buildScenario(t, conference)
		cut := tr.Records[0].T + int64(k)*window.Microseconds()
		prefix := tr.Slice(-1<<62, cut)
		remainder := tr.Slice(cut, 1<<62)
		probe := core.CandidatesIn(remainder, window, cfg)
		if len(probe) == 0 {
			t.Fatalf("%s: no validation candidates", name)
		}
		batch := batchTrainPerWindow(t, prefix, window, cfg)
		if batch.Len() == 0 {
			t.Fatalf("%s: batch training produced no references", name)
		}

		for _, shards := range []int{0, 1, 4} { // 0 = serial Engine
			trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{
				Horizon: 1,
				Update:  true,
			})
			var te trainEvents
			sink := collectTrainer(&te)

			var frames uint64
			var droppedFrames uint64
			if shards == 0 {
				eng, err := engine.New(cfg, nil, engine.Options{Window: window, Sink: sink, Trainer: trainer})
				if err != nil {
					t.Fatal(err)
				}
				eng.PushTrace(prefix)
				eng.Close()
				st := eng.Stats()
				frames, droppedFrames = st.Frames, st.DroppedFrames
			} else {
				eng, err := engine.NewSharded(cfg, nil, engine.ShardedOptions{
					Window: window, Shards: shards, Sink: sink, Trainer: trainer,
				})
				if err != nil {
					t.Fatal(err)
				}
				eng.PushTrace(prefix)
				eng.Close()
				st := eng.Stats()
				frames, droppedFrames = st.Frames, st.DroppedFrames
			}

			label := name + "/live-vs-batch"
			if shards > 0 {
				label = name + "/sharded-live-vs-batch"
			}
			sameDB(t, label, trainer.Database(), batch, probe)

			// The hot-swap path must be lossless and emit exactly one
			// DBSwapped per promotion batch (per changed window).
			if frames != uint64(len(prefix.Records)) || droppedFrames != 0 {
				t.Fatalf("%s: %d frames seen of %d pushed (%d dropped)", label, frames, len(prefix.Records), droppedFrames)
			}
			perWindow := make(map[int]int)
			for i, sw := range te.swapped {
				perWindow[sw.Window]++
				if sw.Version != uint64(i+1) {
					t.Fatalf("%s: swap %d has version %d", label, i, sw.Version)
				}
			}
			for win, n := range perWindow {
				if n != 1 {
					t.Fatalf("%s: window %d emitted %d DBSwapped events, want exactly 1", label, win, n)
				}
			}
			if len(te.swapped) == 0 || len(te.enrolled) == 0 {
				t.Fatalf("%s: no enrollment activity (%d swaps, %d enrollments)", label, len(te.swapped), len(te.enrolled))
			}
			st := trainer.Stats()
			if st.Refs != batch.Len() || st.Swaps != uint64(len(te.swapped)) || st.Enrolled != uint64(len(te.enrolled)) {
				t.Fatalf("%s: trainer stats inconsistent: %+v", label, st)
			}
		}
	}
}

// TestTrainerHorizon checks that a multi-window horizon delays
// promotion, reports progress meanwhile, and enrolls the accumulated
// multi-window signature.
func TestTrainerHorizon(t *testing.T) {
	t.Parallel()
	const window = 2 * time.Minute
	cfg := core.DefaultConfig(core.ParamInterArrival)
	tr := buildScenario(t, false)

	trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{Horizon: 2, Update: true})
	var te trainEvents
	eng, err := engine.New(cfg, nil, engine.Options{Window: window, Sink: collectTrainer(&te), Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()

	if len(te.enrolled) == 0 {
		t.Fatal("nothing enrolled")
	}
	firstEnroll := make(map[dot11.Addr]engine.DeviceEnrolled)
	for _, en := range te.enrolled {
		if _, dup := firstEnroll[en.Addr]; dup {
			t.Fatalf("%v enrolled twice", en.Addr)
		}
		firstEnroll[en.Addr] = en
		if en.Windows < 2 {
			t.Fatalf("%v enrolled after %d windows, horizon is 2", en.Addr, en.Windows)
		}
	}
	// Every enrollee must have reported progress before promotion.
	progressed := make(map[dot11.Addr]bool)
	for _, p := range te.progress {
		progressed[p.Addr] = true
		if p.Horizon != 2 || p.Windows >= 2 {
			t.Fatalf("progress event inconsistent: %+v", p)
		}
		if en, ok := firstEnroll[p.Addr]; ok && p.Window >= en.Window {
			t.Fatalf("%v progressed at window %d after enrolling at %d", p.Addr, p.Window, en.Window)
		}
	}
	for addr := range firstEnroll {
		if !progressed[addr] {
			t.Fatalf("%v enrolled without a progress event", addr)
		}
	}
}

// TestTrainerPolicies checks the deny-list and the confirm callback:
// denied senders never enroll, rejected senders are remembered and the
// callback runs at most once per sender, approved senders enroll.
func TestTrainerPolicies(t *testing.T) {
	t.Parallel()
	const window = 2 * time.Minute
	cfg := core.DefaultConfig(core.ParamInterArrival)
	tr := buildScenario(t, false)

	// Find two distinct senders that will complete enrollment.
	probeTrainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{})
	var probe trainEvents
	eng, err := engine.New(cfg, nil, engine.Options{Window: window, Sink: collectTrainer(&probe), Trainer: probeTrainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()
	if len(probe.enrolled) < 3 {
		t.Fatalf("scenario too sparse: %d enrollments", len(probe.enrolled))
	}
	denyAddr := probe.enrolled[0].Addr
	rejectAddr := probe.enrolled[1].Addr

	calls := make(map[dot11.Addr]int)
	trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{
		Policy: engine.EnrollConfirm,
		Deny:   []dot11.Addr{denyAddr},
		Confirm: func(p engine.PendingEnrollment) bool {
			calls[p.Addr]++
			if p.Observations == 0 || p.Windows == 0 || p.Sig == nil {
				t.Errorf("confirm saw an empty pending enrollment: %+v", p)
			}
			return p.Addr != rejectAddr
		},
	})
	var te trainEvents
	eng, err = engine.New(cfg, nil, engine.Options{Window: window, Sink: collectTrainer(&te), Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()

	if calls[denyAddr] != 0 {
		t.Fatal("confirm callback consulted for a deny-listed sender")
	}
	if calls[rejectAddr] != 1 {
		t.Fatalf("confirm called %d times for the rejected sender, want exactly 1", calls[rejectAddr])
	}
	db := trainer.Database()
	if db.Signature(denyAddr) != nil || db.Signature(rejectAddr) != nil {
		t.Fatal("denied or rejected sender present in the references")
	}
	if db.Len() == 0 {
		t.Fatal("no approved enrollments")
	}
	st := trainer.Stats()
	if st.Rejected != 1 || st.Denied == 0 {
		t.Fatalf("policy counters inconsistent: %+v", st)
	}
}

// TestTrainerConfirmNilNeverEnrolls pins the conservative default of
// EnrollConfirm without a callback.
func TestTrainerConfirmNilNeverEnrolls(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig(core.ParamInterArrival)
	tr := buildScenario(t, false)
	trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{Policy: engine.EnrollConfirm})
	eng, err := engine.New(cfg, nil, engine.Options{Window: 2 * time.Minute, Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()
	if st := trainer.Stats(); st.Refs != 0 || st.Enrolled != 0 || st.Swaps != 0 {
		t.Fatalf("EnrollConfirm with nil callback enrolled anyway: %+v", st)
	}
}

// TestTrainerMaxPending bounds the pending accumulation state under
// sender churn that never completes the horizon.
func TestTrainerMaxPending(t *testing.T) {
	t.Parallel()
	cfg := core.Config{Param: core.ParamSize, MinObservations: 10}
	tr := &capture.Trace{Name: "pending-churn"}
	// 32 senders, each a candidate in exactly one 1-second window — a
	// horizon of 100 means none ever promotes.
	for s := 0; s < 32; s++ {
		base := int64(s) * 1_000_000
		for i := 0; i < 12; i++ {
			tr.Records = append(tr.Records, capture.Record{
				T: base + int64(i)*10_000, Sender: dot11.LocalAddr(uint64(s + 1)), Receiver: apX,
				Class: dot11.ClassData, Size: 200 + 8*s, RateMbps: 24, FCSOK: true,
			})
		}
	}
	trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{
		Horizon: 100, MaxPending: 4,
	})
	eng, err := engine.New(cfg, nil, engine.Options{Window: time.Second, Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()
	st := trainer.Stats()
	if st.Pending > 4 {
		t.Fatalf("pending state %d exceeds MaxPending 4", st.Pending)
	}
	if st.EvictedPending == 0 {
		t.Fatal("no pending evictions under churn")
	}
	if st.Refs != 0 {
		t.Fatalf("%d senders enrolled below the horizon", st.Refs)
	}
}

// TestTrainerMaxPendingPromoteSameWindow pins the promote/evict
// interaction inside a single window: with Horizon 1 a sender is slated
// for promotion the moment it appears, and a later new sender in the
// same window may push pending over MaxPending and trigger an eviction.
// A promote-slated sender must be out of eviction's reach — evicting it
// used to leave a nil pending entry for the promote loop to dereference,
// crashing the engine's window goroutine.
func TestTrainerMaxPendingPromoteSameWindow(t *testing.T) {
	t.Parallel()
	cfg := core.Config{Param: core.ParamSize, MinObservations: 10}
	tr := &capture.Trace{Name: "promote-evict-race"}
	// Three new senders, all candidates of the same 1-second window, in
	// ascending address order — the promote-slated lowest address is the
	// eviction tie-break victim if it is still visible to evictPending.
	for s := 0; s < 3; s++ {
		base := int64(s) * 50_000
		for i := 0; i < 12; i++ {
			tr.Records = append(tr.Records, capture.Record{
				T: base + int64(i)*1_000, Sender: dot11.LocalAddr(uint64(s + 1)), Receiver: apX,
				Class: dot11.ClassData, Size: 200 + 8*s, RateMbps: 24, FCSOK: true,
			})
		}
	}
	trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{
		Horizon: 1, MaxPending: 2,
	})
	eng, err := engine.New(cfg, nil, engine.Options{Window: time.Second, Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()
	st := trainer.Stats()
	if st.Refs != 3 {
		t.Fatalf("%d of 3 same-window senders enrolled at Horizon 1: %+v", st.Refs, st)
	}
	if st.EvictedPending != 0 {
		t.Fatalf("promote-slated senders counted against MaxPending: %+v", st)
	}
}

// TestTrainerMaxPendingNoCascade pins the mid-window eviction rule:
// when pending senders are all candidates of the current window, one
// new arrival over the cap must not cascade into resetting live
// senders' accumulation — everyone persistent still reaches the
// horizon and enrolls.
func TestTrainerMaxPendingNoCascade(t *testing.T) {
	t.Parallel()
	const cap = 8
	cfg := core.Config{Param: core.ParamSize, MinObservations: 10}
	tr := &capture.Trace{Name: "pending-cap"}
	// cap+1 persistent senders, every one a candidate in every 1-second
	// window, across 4 windows.
	for win := 0; win < 4; win++ {
		for s := 0; s <= cap; s++ {
			base := int64(win)*1_000_000 + int64(s)*50_000
			for i := 0; i < 12; i++ {
				tr.Records = append(tr.Records, capture.Record{
					T: base + int64(i)*1_000, Sender: dot11.LocalAddr(uint64(s + 1)), Receiver: apX,
					Class: dot11.ClassData, Size: 200 + 8*s, RateMbps: 24, FCSOK: true,
				})
			}
		}
	}
	trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{
		Horizon: 2, MaxPending: cap,
	})
	eng, err := engine.New(cfg, nil, engine.Options{Window: time.Second, Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()
	// With a cascade, every window's insertions would reset every
	// pending sender and nothing would ever complete the horizon. The
	// fixed rule loses at most the cap overflow (1 sender's worth of
	// thrash), so at least cap-1 of the cap+1 senders must enroll.
	if st := trainer.Stats(); st.Refs < cap-1 {
		t.Fatalf("only %d of %d persistent senders enrolled under MaxPending %d: %+v",
			st.Refs, cap+1, cap, st)
	}
}

// TestTrainerTapMatchesInline checks the event-stream attachment (Tap +
// Bind) reproduces the inline mode on the serial engine, where event
// delivery is synchronous with window close.
func TestTrainerTapMatchesInline(t *testing.T) {
	t.Parallel()
	const window = 2 * time.Minute
	cfg := core.DefaultConfig(core.ParamInterArrival)
	tr := buildScenario(t, true)
	probe := core.CandidatesIn(tr, window, cfg)

	inline := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{Horizon: 2, Update: true})
	eng, err := engine.New(cfg, nil, engine.Options{Window: window, Trainer: inline})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()

	tapped := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{Horizon: 2, Update: true})
	var te trainEvents
	eng2, err := engine.New(cfg, nil, engine.Options{Window: window, Sink: tapped.Tap(collectTrainer(&te))})
	if err != nil {
		t.Fatal(err)
	}
	// Bind installs the trainer's compiled references (empty here) and
	// shape-checks through the engine's SetDB.
	if err := tapped.Bind(eng2); err != nil {
		t.Fatal(err)
	}
	eng2.PushTrace(tr)
	eng2.Close()

	sameDB(t, "tap-vs-inline", tapped.Database(), inline.Database(), probe)
	if len(te.swapped) == 0 {
		t.Fatal("tap delivered no trainer events downstream")
	}

	// A shape-mismatched trainer must fail at Bind, not silently fail
	// every later swap.
	wrong := engine.NewTrainer(core.DefaultConfig(core.ParamRate), core.MeasureCosine, engine.TrainerOptions{})
	eng3, err := engine.New(cfg, nil, engine.Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if err := wrong.Bind(eng3); err == nil {
		t.Fatal("Bind accepted a shape-mismatched trainer")
	}
}

// TestTrainerTapUnboundClaimsNoSwaps pins the unbound tap: a trainer
// fed through Tap without Bind still accumulates and promotes into its
// private database, but must not claim installations that never
// happened — no DBSwapped events, Stats().Swaps zero.
func TestTrainerTapUnboundClaimsNoSwaps(t *testing.T) {
	t.Parallel()
	const window = 2 * time.Minute
	cfg := core.DefaultConfig(core.ParamInterArrival)
	tr := buildScenario(t, true)

	unbound := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{Horizon: 2})
	var te trainEvents
	eng, err := engine.New(cfg, nil, engine.Options{Window: window, Sink: unbound.Tap(collectTrainer(&te))})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tr)
	eng.Close()

	st := unbound.Stats()
	if st.Refs == 0 || st.Enrolled == 0 || len(te.enrolled) == 0 {
		t.Fatalf("unbound tap stopped enrolling: %+v", st)
	}
	if st.Swaps != 0 || len(te.swapped) != 0 {
		t.Fatalf("unbound tap claimed %d swaps (%d DBSwapped events) with no engine to swap", st.Swaps, len(te.swapped))
	}
}

// TestTrainerRejectsMisuse pins the constructor-time error paths: a
// trainer plus an explicit database, a shape-mismatched trainer, and
// double attachment.
func TestTrainerRejectsMisuse(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig(core.ParamInterArrival)
	trainer := engine.NewTrainer(cfg, core.MeasureCosine, engine.TrainerOptions{})
	db := core.NewDatabase(cfg, core.MeasureCosine)

	if _, err := engine.New(cfg, db.Compile(), engine.Options{Trainer: trainer}); err == nil {
		t.Fatal("engine accepted both a db and a trainer")
	}
	if _, err := engine.NewSharded(cfg, db.Compile(), engine.ShardedOptions{Trainer: trainer}); err == nil {
		t.Fatal("sharded engine accepted both a db and a trainer")
	}
	wrong := engine.NewTrainer(core.DefaultConfig(core.ParamRate), core.MeasureCosine, engine.TrainerOptions{})
	if _, err := engine.New(cfg, nil, engine.Options{Trainer: wrong}); err == nil {
		t.Fatal("engine accepted a shape-mismatched trainer")
	}

	eng, err := engine.New(cfg, nil, engine.Options{Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := engine.New(cfg, nil, engine.Options{Trainer: trainer}); err == nil {
		t.Fatal("trainer accepted a second engine")
	}
}

// TestTrainerWarmStart checks NewTrainerFrom: seeded references keep
// matching, the seed is copy-on-write (the caller's database is never
// mutated), and only unknown senders enroll around it.
func TestTrainerWarmStart(t *testing.T) {
	t.Parallel()
	const window = 2 * time.Minute
	cfg := core.DefaultConfig(core.ParamInterArrival)
	tr := buildScenario(t, false)
	cut := tr.Records[0].T + window.Microseconds()
	head, tail := tr.Slice(-1<<62, cut), tr.Slice(cut, 1<<62)

	seed := batchTrainPerWindow(t, head, window, cfg)
	seedObs := make(map[dot11.Addr]uint64)
	for _, addr := range seed.Devices() {
		seedObs[addr] = seed.Signature(addr).Observations()
	}

	trainer := engine.NewTrainerFrom(seed, engine.TrainerOptions{}) // Update off: seed stays frozen
	var matched int
	sink := engine.SinkFunc(func(ev engine.Event) {
		if _, ok := ev.(engine.CandidateMatched); ok {
			matched++
		}
	})
	eng, err := engine.New(cfg, nil, engine.Options{Window: window, Sink: sink, Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushTrace(tail)
	eng.Close()

	if matched == 0 {
		t.Fatal("seeded references never matched")
	}
	for addr, obs := range seedObs {
		if got := seed.Signature(addr).Observations(); got != obs {
			t.Fatalf("seed database mutated: %v has %d observations, had %d", addr, got, obs)
		}
	}
	if trainer.Stats().Refs < seed.Len() {
		t.Fatalf("warm-started trainer lost seed references: %+v", trainer.Stats())
	}
}
