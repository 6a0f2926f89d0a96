package engine_test

import (
	"fmt"
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
)

// ensembleCfgs is the fused parameter set the engine tests run:
// inter-arrival first, so the window-edge asymmetry (iat undefined at
// window starts) is exercised on member 0.
func ensembleCfgs(minObs int) []core.Config {
	return []core.Config{
		{Param: core.ParamInterArrival, MinObservations: minObs},
		{Param: core.ParamSize, MinObservations: minObs},
		{Param: core.ParamRate, MinObservations: minObs},
	}
}

// multiCollected flattens an ensemble engine's event stream.
type multiCollected struct {
	cands    []core.MultiCandidate
	fused    [][]core.Score
	perParam [][][]core.Score
	best     []core.Score
	matched  []bool
	dropped  []engine.CandidateDropped
	closed   []engine.WindowClosed
}

// multiSink collects fused verdict events in order.
func multiSink(got *multiCollected) engine.Sink {
	return engine.SinkFunc(func(ev engine.Event) {
		switch ev := ev.(type) {
		case engine.CandidateMatched:
			got.cands = append(got.cands, core.MultiCandidate{Addr: [6]byte(ev.Addr), Window: ev.Window, Sigs: ev.Sigs})
			got.fused = append(got.fused, ev.Scores)
			got.perParam = append(got.perParam, ev.ParamScores)
			got.best = append(got.best, ev.Best)
			got.matched = append(got.matched, true)
			if ev.Sig != nil {
				panic("ensemble verdict carries a single-parameter Sig")
			}
		case engine.UnknownDevice:
			got.cands = append(got.cands, core.MultiCandidate{Addr: [6]byte(ev.Addr), Window: ev.Window, Sigs: ev.Sigs})
			got.fused = append(got.fused, ev.Scores)
			got.perParam = append(got.perParam, ev.ParamScores)
			got.best = append(got.best, ev.Best)
			got.matched = append(got.matched, false)
		case engine.CandidateDropped:
			got.dropped = append(got.dropped, ev)
		case engine.WindowClosed:
			got.closed = append(got.closed, ev)
		}
	})
}

// sameFused asserts two score vectors are bit-identical.
func sameFused(t *testing.T, label string, got, want []core.Score) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] { // exact float equality: bit-identical
			t.Fatalf("%s score %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEnsembleEngineBitIdenticalToBatch is the fusion PR's acceptance
// test: the streaming ensemble engines — serial, and sharded at shard
// counts 1, 2 and 4 — produce exactly the multi-parameter candidates
// and fused + per-member score vectors of the batch core.Ensemble path
// (CandidatesIn + CompiledEnsemble.MatchAll) on the office and
// conference scenario traces and the hand-built edge trace, with the
// sharded streams event-for-event identical to the serial one.
func TestEnsembleEngineBitIdenticalToBatch(t *testing.T) {
	t.Parallel()
	traces := map[string]*capture.Trace{
		"office": buildScenario(t, false),
		"conf":   buildScenario(t, true),
		"edges":  edgeTrace(),
	}
	for name, tr := range traces {
		train, valid := core.Split(tr, 3*time.Minute)
		if name == "edges" {
			train, valid = tr, tr // tiny trace: train and monitor on the same records
		}
		cfgs := ensembleCfgs(10)
		ens, err := core.NewEnsemble(core.MeasureCosine, cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := ens.Train(train); err != nil {
			t.Fatal(err)
		}
		ce := ens.Compile()
		window := 2 * time.Minute

		wantCands := ens.CandidatesIn(valid, window)
		wantFused, wantPerParam := ce.MatchAll(wantCands)

		check := func(label string, got *multiCollected) {
			t.Helper()
			if len(got.cands) != len(wantCands) {
				t.Fatalf("%s: %d candidates, want %d", label, len(got.cands), len(wantCands))
			}
			for i := range wantCands {
				if got.cands[i].Addr != wantCands[i].Addr || got.cands[i].Window != wantCands[i].Window {
					t.Fatalf("%s cand %d: got (%x, w%d), want (%x, w%d)", label, i,
						got.cands[i].Addr, got.cands[i].Window, wantCands[i].Addr, wantCands[i].Window)
				}
				if len(got.cands[i].Sigs) != len(cfgs) {
					t.Fatalf("%s cand %d: %d member sigs, want %d", label, i, len(got.cands[i].Sigs), len(cfgs))
				}
				for m := range cfgs {
					sameSig(t, label, got.cands[i].Sigs[m], wantCands[i].Sigs[m])
				}
				sameFused(t, label, got.fused[i], wantFused[i])
				if len(got.perParam[i]) != len(wantPerParam[i]) {
					t.Fatalf("%s cand %d: %d member vectors, want %d", label, i, len(got.perParam[i]), len(wantPerParam[i]))
				}
				for m := range wantPerParam[i] {
					sameFused(t, label, got.perParam[i][m], wantPerParam[i][m])
				}
				best := core.Score{Sim: -1}
				for _, sc := range wantFused[i] {
					if sc.Sim > best.Sim {
						best = sc
					}
				}
				if got.best[i] != best {
					t.Fatalf("%s cand %d best: %+v, want %+v", label, i, got.best[i], best)
				}
			}
			// Window summaries must be self-consistent with the events.
			var matched, unknown, dropped, cands int
			for _, w := range got.closed {
				matched += w.Matched
				unknown += w.Unknown
				dropped += w.Dropped
				cands += w.Candidates
			}
			if cands != len(got.cands) || matched+unknown != cands || dropped != len(got.dropped) {
				t.Fatalf("%s: inconsistent summaries: %d cands (%d events), %d+%d verdicts, %d dropped (%d events)",
					label, cands, len(got.cands), matched, unknown, dropped, len(got.dropped))
			}
		}

		serial := &multiCollected{}
		eng, err := engine.NewEnsemble(cfgs, ce, engine.Options{Window: window, TopK: engine.FullVector, Sink: multiSink(serial)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range valid.Records {
			rec := valid.Records[i]
			eng.Push(&rec)
		}
		eng.Close()
		check(name+"/serial", serial)

		for _, shards := range []int{1, 2, 4} {
			got := &multiCollected{}
			sh, err := engine.NewShardedEnsemble(cfgs, ce, engine.ShardedOptions{
				Window: window, Shards: shards, TopK: engine.FullVector, Sink: multiSink(got),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range valid.Records {
				rec := valid.Records[i]
				sh.Push(&rec)
			}
			sh.Close()
			label := name + "/shards=" + string(rune('0'+shards))
			check(label, got)
			// The sharded drop stream must match the serial one too.
			if len(got.dropped) != len(serial.dropped) {
				t.Fatalf("%s: %d drop events, want %d", label, len(got.dropped), len(serial.dropped))
			}
			for i := range serial.dropped {
				if got.dropped[i] != serial.dropped[i] {
					t.Fatalf("%s drop %d: %+v, want %+v", label, i, got.dropped[i], serial.dropped[i])
				}
			}
			if len(got.closed) != len(serial.closed) {
				t.Fatalf("%s: %d window summaries, want %d", label, len(got.closed), len(serial.closed))
			}
			for i := range serial.closed {
				if got.closed[i] != serial.closed[i] {
					t.Fatalf("%s summary %d: %+v, want %+v", label, i, got.closed[i], serial.closed[i])
				}
			}
		}
	}
}

// TestEnsembleEngineThresholdAndHotSwap covers the fused verdict split
// and the SetEnsembleDB hot-swap path, plus the mode-mismatch guards.
func TestEnsembleEngineThresholdAndHotSwap(t *testing.T) {
	t.Parallel()
	tr := buildScenario(t, false)
	cfgs := ensembleCfgs(10)
	ens, err := core.NewEnsemble(core.MeasureCosine, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	train, valid := core.Split(tr, 3*time.Minute)
	if err := ens.Train(train); err != nil {
		t.Fatal(err)
	}

	var unknownNoScores, matched int
	sink := engine.SinkFunc(func(ev engine.Event) {
		switch ev := ev.(type) {
		case engine.UnknownDevice:
			if ev.Scores == nil && !ev.HasBest {
				unknownNoScores++
			}
		case engine.CandidateMatched:
			matched++
			if len(ev.ParamScores) != len(cfgs) {
				t.Errorf("matched event carries %d member vectors, want %d", len(ev.ParamScores), len(cfgs))
			}
			if ev.Observations() == 0 {
				t.Error("matched event reports zero observations")
			}
		}
	})
	eng, err := engine.NewEnsemble(cfgs, nil, engine.Options{Window: 2 * time.Minute, TopK: engine.FullVector, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if eng.EnsembleDB() != nil {
		t.Fatal("fresh ensemble engine has references installed")
	}
	// Mode and shape guards.
	if err := eng.SetDB(nil); err == nil {
		t.Fatal("SetDB accepted on an ensemble engine")
	}
	wrong, _ := core.NewEnsemble(core.MeasureCosine, core.Config{Param: core.ParamTxTime})
	if err := eng.SetEnsembleDB(wrong.Compile()); err == nil {
		t.Fatal("mismatched SetEnsembleDB accepted")
	}

	half := len(valid.Records) / 2
	for i := range valid.Records {
		rec := valid.Records[i]
		eng.Push(&rec)
		if i == half {
			if err := eng.SetEnsembleDB(ens.Compile()); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Close()
	if unknownNoScores == 0 {
		t.Fatal("no score-less UnknownDevice events before the ensemble was installed")
	}
	if matched == 0 {
		t.Fatal("no CandidateMatched events after the ensemble was installed")
	}

	// Single-parameter engines reject the ensemble entry points.
	single, err := engine.New(core.Config{Param: core.ParamSize}, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.SetEnsembleDB(ens.Compile()); err == nil {
		t.Fatal("SetEnsembleDB accepted on a single-parameter engine")
	}
}

// TestEnsembleTrainerLiveEqualsBatch pins live fused enrollment against
// first principles on both engines: a cold-started ensemble trainer
// (horizon 1, Update on) over a stream enrolls exactly the references
// that batch per-window atomic training (Ensemble.Add over
// CandidatesIn, merging re-observations) produces — same devices, same
// insertion order, bit-identical fused MatchAll scores — and the
// sharded engine's trainer events match the serial engine's at every
// shard count.
func TestEnsembleTrainerLiveEqualsBatch(t *testing.T) {
	t.Parallel()
	tr := buildScenario(t, true)
	cfgs := ensembleCfgs(10)
	window := 2 * time.Minute

	// Batch reference: per-window atomic enrollment.
	extractor, err := core.NewEnsemble(core.MeasureCosine, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.NewEnsemble(core.MeasureCosine, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	cands := extractor.CandidatesIn(tr, window)
	for i := range cands {
		addr := dot11.Addr(cands[i].Addr)
		if refs := batch.SignaturesInto(nil, addr); refs != nil {
			for m := range refs {
				if err := refs[m].Merge(cands[i].Sigs[m]); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		// Clone: the live trainer accumulates into its own signatures.
		sigs := make([]*core.Signature, len(cands[i].Sigs))
		for m, sig := range cands[i].Sigs {
			sigs[m] = sig.Clone()
		}
		if err := batch.Add(addr, sigs); err != nil {
			t.Fatal(err)
		}
	}

	run := func(shards int) (*core.Ensemble, []engine.Event) {
		t.Helper()
		trainer, err := engine.NewEnsembleTrainer(cfgs, core.MeasureCosine, engine.TrainerOptions{Horizon: 1, Update: true})
		if err != nil {
			t.Fatal(err)
		}
		var events []engine.Event
		sink := &collectSink{}
		var eng interface {
			Push(*capture.Record)
			Close()
		}
		if shards == 0 {
			eng, err = engine.NewEnsemble(cfgs, nil, engine.Options{Window: window, Sink: sink, Trainer: trainer})
		} else {
			eng, err = engine.NewShardedEnsemble(cfgs, nil, engine.ShardedOptions{
				Window: window, Shards: shards, Sink: sink, Trainer: trainer,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Records {
			rec := tr.Records[i]
			eng.Push(&rec)
		}
		eng.Close()
		events = sink.events
		return trainer.Ensemble(), events
	}

	compare := func(label string, live *core.Ensemble) {
		t.Helper()
		if live.Len() != batch.Len() {
			t.Fatalf("%s: %d refs, want %d", label, live.Len(), batch.Len())
		}
		if len(live.Partial()) != 0 {
			t.Fatalf("%s: live enrollment produced partial devices: %v", label, live.Partial())
		}
		lm, bm := live.Members(), batch.Members()
		for m := range bm {
			ld, bd := lm[m].Devices(), bm[m].Devices()
			if len(ld) != len(bd) {
				t.Fatalf("%s member %d: %d devices, want %d", label, m, len(ld), len(bd))
			}
			for i := range bd {
				if ld[i] != bd[i] {
					t.Fatalf("%s member %d device %d: %v, want %v (insertion order)", label, m, i, ld[i], bd[i])
				}
			}
		}
		// Fused scores over the full candidate set, bit-identical.
		lce, bce := live.Compile(), batch.Compile()
		lf, _ := lce.MatchAll(cands)
		bf, _ := bce.MatchAll(cands)
		for i := range bf {
			sameFused(t, label, lf[i], bf[i])
		}
	}

	serialEns, serialEvents := run(0)
	compare("serial", serialEns)
	for _, shards := range []int{1, 2, 4} {
		liveEns, events := run(shards)
		label := "shards=" + string(rune('0'+shards))
		compare(label, liveEns)
		if len(events) != len(serialEvents) {
			t.Fatalf("%s: %d events, want %d", label, len(events), len(serialEvents))
		}
		for i := range serialEvents {
			sameTrainerEvent(t, label, events[i], serialEvents[i])
		}
	}
}

// sameTrainerEvent compares events across engines, covering the trainer
// event types on top of sameEvent's.
func sameTrainerEvent(t *testing.T, label string, got, want engine.Event) {
	t.Helper()
	switch want := want.(type) {
	case engine.EnrollmentProgress:
		if g, ok := got.(engine.EnrollmentProgress); !ok || g != want {
			t.Fatalf("%s: %+v, want %+v", label, got, want)
		}
	case engine.DeviceEnrolled:
		if g, ok := got.(engine.DeviceEnrolled); !ok || g != want {
			t.Fatalf("%s: %+v, want %+v", label, got, want)
		}
	case engine.DBSwapped:
		if g, ok := got.(engine.DBSwapped); !ok || g != want {
			t.Fatalf("%s: %+v, want %+v", label, got, want)
		}
	case engine.CandidateMatched:
		g, ok := got.(engine.CandidateMatched)
		if !ok {
			t.Fatalf("%s: got %T, want CandidateMatched", label, got)
		}
		if g.Window != want.Window || g.Addr != want.Addr || g.Best != want.Best {
			t.Fatalf("%s: matched %v/w%d best %+v, want %v/w%d best %+v",
				label, g.Addr, g.Window, g.Best, want.Addr, want.Window, want.Best)
		}
		sameScores(t, label, g.Scores, want.Scores)
	case engine.UnknownDevice:
		g, ok := got.(engine.UnknownDevice)
		if !ok {
			t.Fatalf("%s: got %T, want UnknownDevice", label, got)
		}
		if g.Window != want.Window || g.Addr != want.Addr || g.Best != want.Best || g.HasBest != want.HasBest {
			t.Fatalf("%s: unknown %v/w%d, want %v/w%d", label, g.Addr, g.Window, want.Addr, want.Window)
		}
		sameScores(t, label, g.Scores, want.Scores)
	default:
		sameEvent(t, label, got, want)
	}
}

// TestEnsembleTrainerRefusesPartialSeed pins the trainer half of the
// partially-known fix: a warm start from an ensemble holding devices
// enrolled in some members but not all is refused outright.
func TestEnsembleTrainerRefusesPartialSeed(t *testing.T) {
	t.Parallel()
	seed, err := core.NewEnsemble(core.MeasureCosine,
		core.Config{Param: core.ParamSize, MinObservations: 1},
		core.Config{Param: core.ParamInterArrival, MinObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One device known to the size member only.
	tr := &capture.Trace{}
	tr.Records = append(tr.Records, capture.Record{
		T: 0, Sender: dot11.LocalAddr(9), Receiver: dot11.LocalAddr(99),
		Class: dot11.ClassData, Size: 500, RateMbps: 24, FCSOK: true,
	})
	if err := seed.Train(tr); err != nil {
		t.Fatal(err)
	}
	if len(seed.Partial()) == 0 {
		t.Fatal("seed construction failed to produce a partial device")
	}
	if _, err := engine.NewEnsembleTrainerFrom(seed, engine.TrainerOptions{}); err == nil {
		t.Fatal("partial seed accepted")
	}

	// A clean seed is accepted and warm-starts matching.
	clean, err := core.NewEnsemble(core.MeasureCosine,
		core.Config{Param: core.ParamSize, MinObservations: 1},
		core.Config{Param: core.ParamRate, MinObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Train(tr); err != nil {
		t.Fatal(err)
	}
	trainer, err := engine.NewEnsembleTrainerFrom(clean, engine.TrainerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if trainer.Ensemble().Len() != 1 {
		t.Fatalf("warm-started trainer holds %d refs, want 1", trainer.Ensemble().Len())
	}
	if trainer.Database() != nil || trainer.Compiled() != nil {
		t.Fatal("ensemble trainer leaks single-parameter accessors")
	}
}

// TestEnsembleOfOneIdentical pins the single-parameter engines as the
// one-member case of the ensemble ones: over the office and conference
// traces, at top-5 and FullVector, New and NewEnsemble over the same
// one configuration — and NewSharded and NewShardedEnsemble at 1 and 3
// shards — emit the same verdicts with bit-identical Best and Scores,
// the same drops and the same WindowClosed summaries. Only the event
// shape differs: Sig on a single-parameter engine, Sigs (and, under
// FullVector, a ParamScores vector equal to Scores) on an ensemble one.
func TestEnsembleOfOneIdentical(t *testing.T) {
	t.Parallel()
	cases := []struct {
		conference bool
		cfg        core.Config
	}{
		{false, core.Config{Param: core.ParamInterArrival, MinObservations: 10}},
		{true, core.Config{Param: core.ParamTxTime, MinObservations: 10}},
	}
	for _, c := range cases {
		train, valid := core.Split(buildScenario(t, c.conference), 3*time.Minute)
		db := core.NewDatabase(c.cfg, core.MeasureCosine)
		if err := db.Train(train); err != nil {
			t.Fatal(err)
		}
		ens, err := core.NewEnsembleFrom(db)
		if err != nil {
			t.Fatal(err)
		}
		cdb, cedb := db.Compile(), ens.Compile()
		cfgs := []core.Config{c.cfg}
		for _, topK := range []int{engine.DefaultTopK, engine.FullVector} {
			label := func(form string) string {
				return fmt.Sprintf("%v/topk=%d/%s", c.cfg.Param, topK, form)
			}
			want := &collectSink{}
			opts := engine.Options{Window: 2 * time.Minute, Threshold: 0.5, TopK: topK, Sink: want}
			single, err := engine.New(c.cfg, cdb, opts)
			if err != nil {
				t.Fatal(err)
			}
			single.PushTrace(valid)
			single.Close()

			got := &collectSink{}
			opts.Sink = got
			one, err := engine.NewEnsemble(cfgs, cedb, opts)
			if err != nil {
				t.Fatal(err)
			}
			one.PushTrace(valid)
			one.Close()
			sameAsSingle(t, label("serial"), got.events, want.events, false)

			for _, shards := range []int{1, 3} {
				for _, ensemble := range []bool{false, true} {
					got := &collectSink{}
					sopts := engine.ShardedOptions{Window: 2 * time.Minute, Threshold: 0.5, TopK: topK, Shards: shards, Sink: got}
					var s *engine.Sharded
					if ensemble {
						s, err = engine.NewShardedEnsemble(cfgs, cedb, sopts)
					} else {
						s, err = engine.NewSharded(c.cfg, cdb, sopts)
					}
					if err != nil {
						t.Fatal(err)
					}
					s.PushTrace(valid)
					s.Close()
					sameAsSingle(t, label(fmt.Sprintf("shards=%d/ensemble=%v", shards, ensemble)), got.events, want.events, !ensemble)
				}
			}
		}
	}
}

// sameAsSingle compares an event stream against a single-parameter
// engine's: identical events, with verdicts in the single shape when
// single is set and in the one-member ensemble shape otherwise.
func sameAsSingle(t *testing.T, label string, got, want []engine.Event, single bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	verdicts := 0
	for i := range want {
		if !single {
			got[i] = asSingleShape(t, label, got[i])
		}
		switch got[i].(type) {
		case engine.CandidateMatched, engine.UnknownDevice:
			verdicts++
		}
		sameEvent(t, label, got[i], want[i])
	}
	if verdicts == 0 {
		t.Fatalf("%s: no verdicts compared", label)
	}
}

// asSingleShape rewrites a one-member ensemble verdict into the
// single-parameter shape, checking the parts the rewrite drops.
func asSingleShape(t *testing.T, label string, ev engine.Event) engine.Event {
	t.Helper()
	check := func(sigs []*core.Signature, scores []core.Score, paramScores [][]core.Score) {
		if len(sigs) != 1 {
			t.Fatalf("%s: %d member signatures, want 1", label, len(sigs))
		}
		if paramScores != nil {
			if len(paramScores) != 1 {
				t.Fatalf("%s: %d member vectors, want 1", label, len(paramScores))
			}
			sameScores(t, label+" ParamScores", paramScores[0], scores)
		}
	}
	switch ev := ev.(type) {
	case engine.CandidateMatched:
		if ev.Sig != nil {
			t.Fatalf("%s: ensemble verdict carries Sig", label)
		}
		check(ev.Sigs, ev.Scores, ev.ParamScores)
		ev.Sig, ev.Sigs, ev.ParamScores = ev.Sigs[0], nil, nil
		return ev
	case engine.UnknownDevice:
		if ev.Sig != nil {
			t.Fatalf("%s: ensemble verdict carries Sig", label)
		}
		check(ev.Sigs, ev.Scores, ev.ParamScores)
		ev.Sig, ev.Sigs, ev.ParamScores = ev.Sigs[0], nil, nil
		return ev
	}
	return ev
}
