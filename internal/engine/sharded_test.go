package engine_test

import (
	"sync"
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/scenario"
)

// collectSink gathers a full ordered event stream. The sharded engine
// delivers events from its merger goroutine, so the slice is guarded;
// reads happen after Close, when delivery has quiesced.
type collectSink struct {
	mu     sync.Mutex
	events []engine.Event
}

func (c *collectSink) HandleEvent(ev engine.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// sameEvent asserts two events are equal in type and content, down to
// bit-identical scores.
func sameEvent(t *testing.T, label string, got, want engine.Event) {
	t.Helper()
	switch want := want.(type) {
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
		sameSigs(t, label, g.Sig, g.Sigs, want.Sig, want.Sigs)
	case engine.UnknownDevice:
		g, ok := got.(engine.UnknownDevice)
		if !ok {
			t.Fatalf("%s: got %T, want UnknownDevice", label, got)
		}
		if g.Window != want.Window || g.Addr != want.Addr || g.Best != want.Best || g.HasBest != want.HasBest {
			t.Fatalf("%s: unknown %+v, want %+v", label, g, want)
		}
		sameScores(t, label, g.Scores, want.Scores)
		sameSigs(t, label, g.Sig, g.Sigs, want.Sig, want.Sigs)
	case engine.CandidateDropped:
		g, ok := got.(engine.CandidateDropped)
		if !ok {
			t.Fatalf("%s: got %T, want CandidateDropped", label, got)
		}
		if g != want {
			t.Fatalf("%s: dropped %+v, want %+v", label, g, want)
		}
	case engine.WindowClosed:
		g, ok := got.(engine.WindowClosed)
		if !ok {
			t.Fatalf("%s: got %T, want WindowClosed", label, got)
		}
		if g != want {
			t.Fatalf("%s: closed %+v, want %+v", label, g, want)
		}
	default:
		t.Fatalf("%s: unhandled event type %T", label, want)
	}
}

// sameSigs compares a verdict's signatures in either shape: the single
// signature and the per-member ones must both agree.
func sameSigs(t *testing.T, label string, got *core.Signature, gotSigs []*core.Signature, want *core.Signature, wantSigs []*core.Signature) {
	t.Helper()
	if (got == nil) != (want == nil) || len(gotSigs) != len(wantSigs) {
		t.Fatalf("%s: signature shape (sig %v, %d sigs), want (sig %v, %d sigs)",
			label, got != nil, len(gotSigs), want != nil, len(wantSigs))
	}
	if want != nil {
		sameSig(t, label, got, want)
	}
	for m := range wantSigs {
		sameSig(t, label, gotSigs[m], wantSigs[m])
	}
}

func sameScores(t *testing.T, label string, got, want []core.Score) {
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

// TestShardedIdenticalToSerial is the refactor's acceptance test: over
// the office and conference scenario traces and the hand-built edge
// trace, the sharded engine's merged event stream is identical — same
// events, same order, bit-identical scores — to the serial Engine's,
// for shards=1 and for every shard count beyond it, with and without a
// mid-stream Flush.
func TestShardedIdenticalToSerial(t *testing.T) {
	t.Parallel()
	traces := map[string]*capture.Trace{
		"office": buildScenario(t, false),
		"conf":   buildScenario(t, true),
		"edges":  edgeTrace(),
	}
	type tc struct {
		window   time.Duration
		minObs   int
		param    core.Param
		shards   int
		midFlush bool
	}
	cases := []tc{
		{2 * time.Minute, 0, core.ParamInterArrival, 1, false},
		{2 * time.Minute, 0, core.ParamInterArrival, 4, false},
		{time.Minute, 10, core.ParamSize, 2, false},
		{time.Minute, 10, core.ParamSize, 7, true},
		{90 * time.Second, 25, core.ParamTxTime, 3, false},
		{-1, 10, core.ParamMediumAccess, 4, false}, // whole stream as one window
	}
	for name, tr := range traces {
		train, valid := core.Split(tr, 3*time.Minute)
		if name == "edges" {
			train, valid = tr, tr
		}
		for _, c := range cases {
			cfg := core.Config{Param: c.param, MinObservations: c.minObs}
			db := core.NewDatabase(cfg, core.MeasureCosine)
			if err := db.Train(train); err != nil {
				t.Fatal(err)
			}
			cdb := db.Compile()
			label := name + "/" + c.param.ShortName()

			want := &collectSink{}
			serial, err := engine.New(cfg, cdb, engine.Options{
				Window: c.window, Threshold: 0.2, Sink: want,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := &collectSink{}
			sharded, err := engine.NewSharded(cfg, cdb, engine.ShardedOptions{
				Window: c.window, Threshold: 0.2, Shards: c.shards, Sink: got,
			})
			if err != nil {
				t.Fatal(err)
			}
			half := len(valid.Records) / 2
			for i := range valid.Records {
				rec := valid.Records[i]
				serial.Push(&rec)
				rec = valid.Records[i] // fresh copy: the engines must not alias
				sharded.Push(&rec)
				if c.midFlush && i == half {
					serial.Flush()
					sharded.Flush()
				}
			}
			serial.Close()
			sharded.Close()

			if len(got.events) != len(want.events) {
				t.Fatalf("%s shards=%d: %d events, want %d", label, c.shards, len(got.events), len(want.events))
			}
			for i := range want.events {
				sameEvent(t, label, got.events[i], want.events[i])
			}

			ss, ws := sharded.Stats(), serial.Stats()
			if ss.Frames != ws.Frames || ss.WindowsClosed != ws.WindowsClosed ||
				ss.Matched != ws.Matched || ss.Unknown != ws.Unknown ||
				ss.Dropped != ws.Dropped || ss.DroppedFrames != 0 {
				t.Fatalf("%s shards=%d: stats %+v, want %+v", label, c.shards, ss, ws)
			}
		}
	}
}

// TestShardedBackpressureDrop pins the Drop policy: with a minimal
// queue and a sink that stalls the pipeline, Push never blocks for
// long, dropped observations are counted, and the engine still drains
// cleanly with consistent counters.
func TestShardedBackpressureDrop(t *testing.T) {
	t.Parallel()
	cfg := core.Config{Param: core.ParamSize, MinObservations: 1}
	slow := engine.SinkFunc(func(ev engine.Event) {
		if _, ok := ev.(engine.WindowClosed); ok {
			time.Sleep(2 * time.Millisecond)
		}
	})
	eng, err := engine.NewSharded(cfg, nil, engine.ShardedOptions{
		Window:       time.Second,
		Shards:       2,
		QueueLen:     1, // one batch per shard
		Backpressure: engine.Drop,
		Sink:         slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	senders := make([]dot11.Addr, 64)
	for i := range senders {
		senders[i] = dot11.LocalAddr(uint64(i + 1))
	}
	for i := 0; i < 200_000; i++ {
		rec := capture.Record{
			T: int64(i) * 50, Sender: senders[i%len(senders)], Receiver: apX,
			Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		}
		eng.Push(&rec)
	}
	eng.Close()
	st := eng.Stats()
	if st.DroppedFrames == 0 {
		t.Fatal("drop policy never dropped under a stalled sink and a 1-batch queue")
	}
	if st.Frames != 200_000 || st.Candidates != st.Matched+st.Unknown || st.WindowsClosed == 0 {
		t.Fatalf("inconsistent stats after lossy run: %+v", st)
	}
}

// TestShardedEviction pins the bounded-sender behaviour end to end: a
// per-shard cap keeps live senders bounded under heavy MAC churn, and
// the evicted senders surface as CandidateDropped events with Evicted
// set.
func TestShardedEviction(t *testing.T) {
	t.Parallel()
	cfg := core.Config{Param: core.ParamSize, MinObservations: 10}
	var evictedEvents, droppedEvents int
	sink := engine.SinkFunc(func(ev engine.Event) {
		if d, ok := ev.(engine.CandidateDropped); ok {
			droppedEvents++
			if d.Evicted {
				evictedEvents++
			}
		}
	})
	const shards, cap = 4, 32
	eng, err := engine.NewSharded(cfg, nil, engine.ShardedOptions{
		Window: time.Hour,
		Shards: shards,
		Limits: core.SenderLimits{MaxSenders: cap},
		Sink:   sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20k distinct randomized MACs in one window: unbounded state would
	// hold 20k signatures; the cap keeps it at shards*cap.
	x := uint64(1)
	maxLive := 0
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		rec := capture.Record{
			T: int64(i) * 100, Sender: dot11.LocalAddr(x >> 24), Receiver: apX,
			Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		}
		eng.Push(&rec)
		if i%1000 == 999 {
			if live := eng.Stats().LiveSenders; live > maxLive {
				maxLive = live
			}
		}
	}
	eng.Close()
	if maxLive > shards*cap {
		t.Fatalf("live senders reached %d, cap is %d", maxLive, shards*cap)
	}
	st := eng.Stats()
	if st.Evicted == 0 || evictedEvents == 0 {
		t.Fatalf("no evictions under 20k-MAC churn with cap %d: stats %+v, %d evicted events",
			cap, st, evictedEvents)
	}
	// Detailed CandidateDropped events are capped per shard and window
	// (the eviction record cap); the overflow is counted in the stats
	// but carries no event — both counters must agree on the overflow.
	if uint64(droppedEvents) > st.Dropped || uint64(evictedEvents) > st.Evicted {
		t.Fatalf("more events than counted: %d/%d events, stats %+v", droppedEvents, evictedEvents, st)
	}
	if st.Dropped-uint64(droppedEvents) != st.Evicted-uint64(evictedEvents) {
		t.Fatalf("silent overflow disagrees: %d dropped vs %d evicted beyond events (stats %+v)",
			st.Dropped-uint64(droppedEvents), st.Evicted-uint64(evictedEvents), st)
	}
}

// TestShardedCloseIdempotent pins Close-after-Close and Push-after-
// Close behaviour.
func TestShardedCloseIdempotent(t *testing.T) {
	t.Parallel()
	eng, err := engine.NewSharded(core.Config{Param: core.ParamSize}, nil, engine.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := capture.Record{T: 1, Sender: staA, Class: dot11.ClassData, FCSOK: true, Size: 100, RateMbps: 24}
	eng.Push(&rec)
	eng.Close()
	eng.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Close did not panic")
		}
	}()
	eng.Push(&rec)
}

// TestShardedClusteredIdenticalToSerial extends the equivalence pin to
// the clustering stage: over MAC-randomizing office traces, the
// sharded engine resolving rotated senders in its router produces the
// same event stream as the serial engine resolving them in its
// accumulator — canonical addressing is a pure function of content, so
// the two paths must agree bit for bit at every shard count. The
// inter-arrival cases pin the resolution point: a window's first record
// has no inter-arrival value, yet when it is a probe request its
// binding must land on both paths, single-parameter and ensemble alike.
func TestShardedClusteredIdenticalToSerial(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		seed     uint64
		param    core.Param
		ensemble bool
		shards   []int
	}{
		{"probe-ie", 47, core.ParamProbeIE, false, []int{1, 3, 5}},
		{"iat", 5, core.ParamInterArrival, false, []int{2}},
		{"iat-ensemble", 5, core.ParamInterArrival, true, []int{2}},
	}
	for _, c := range cases {
		p := scenario.RandomizedOffice("shard-rand", c.seed, 8*time.Minute, 8)
		tr, _, err := scenario.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		train, valid := core.Split(tr, 3*time.Minute)
		cfg := core.Config{Param: c.param}
		db := core.NewDatabase(cfg, core.MeasureCosine)
		if err := db.Train(core.NewClusterer(0).Apply(train)); err != nil {
			t.Fatal(err)
		}
		cdb := db.Compile()
		ens, err := core.NewEnsembleFrom(db)
		if err != nil {
			t.Fatal(err)
		}
		cedb := ens.Compile()

		for _, shards := range c.shards {
			want, got := &collectSink{}, &collectSink{}
			opts := engine.Options{
				Window: 2 * time.Minute, Threshold: 0.2, Sink: want,
				Cluster: core.NewClusterer(0),
			}
			sopts := engine.ShardedOptions{
				Window: 2 * time.Minute, Threshold: 0.2, Shards: shards, Sink: got,
				Cluster: core.NewClusterer(0),
			}
			var serial *engine.Engine
			var sharded *engine.Sharded
			if c.ensemble {
				serial, err = engine.NewEnsemble([]core.Config{cfg}, cedb, opts)
				if err == nil {
					sharded, err = engine.NewShardedEnsemble([]core.Config{cfg}, cedb, sopts)
				}
			} else {
				serial, err = engine.New(cfg, cdb, opts)
				if err == nil {
					sharded, err = engine.NewSharded(cfg, cdb, sopts)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range valid.Records {
				rec := valid.Records[i]
				serial.Push(&rec)
				rec = valid.Records[i]
				sharded.Push(&rec)
			}
			serial.Close()
			sharded.Close()

			if len(got.events) != len(want.events) {
				t.Fatalf("%s shards=%d: %d events, want %d", c.name, shards, len(got.events), len(want.events))
			}
			for i := range want.events {
				sameEvent(t, c.name, got.events[i], want.events[i])
			}
		}
	}
}
