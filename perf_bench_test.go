// Micro-benchmarks for the pipeline's hot paths: signature extraction,
// database matching, histogram similarity, simulation and pcap I/O.
package dot11fp_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"dot11fp"
	"dot11fp/internal/histogram"
)

// microTrace is a small office capture shared by the micro-benchmarks.
var microTrace = func() *dot11fp.Trace {
	tr, err := dot11fp.GenerateOffice("micro", 5, 4*time.Minute, 10)
	if err != nil {
		panic(err)
	}
	return tr
}()

func BenchmarkExtractInterArrival(b *testing.B) {
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigs := dot11fp.Extract(microTrace, cfg)
		if len(sigs) == 0 {
			b.Fatal("no signatures")
		}
	}
	b.ReportMetric(float64(len(microTrace.Records)), "records/op")
}

// matchFixture builds the shared matching benchmark inputs: a trained
// reference database and the per-window candidates of the micro trace.
func matchFixture(b *testing.B) (*dot11fp.Database, []dot11fp.Candidate) {
	b.Helper()
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	if err := db.Train(microTrace); err != nil {
		b.Fatal(err)
	}
	cands := dot11fp.CandidatesIn(microTrace, time.Minute, cfg)
	if len(cands) == 0 {
		b.Fatal("no candidates")
	}
	return db, cands
}

// BenchmarkDatabaseMatchNaive measures the per-pair Similarity loop —
// the baseline the compiled path is held against. Note Similarity's
// cosine path is itself count-domain now; the seed's freq-domain loop
// (two fresh frequency slices per comparison, ~113µs/96 allocs on the
// reference machine) is recorded in EXPERIMENTS.md.
func BenchmarkDatabaseMatchNaive(b *testing.B) {
	db, cands := matchFixture(b)
	refs := db.Devices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		n := 0
		for _, addr := range refs {
			_ = dot11fp.SimilarityOf(c.Sig, db.Signature(addr), db.Measure())
			n++
		}
		if n != db.Len() {
			b.Fatal("bad match vector")
		}
	}
}

// BenchmarkDatabaseMatch measures the public Match API, which delegates
// to the compiled snapshot but still allocates the returned vector.
func BenchmarkDatabaseMatch(b *testing.B) {
	db, cands := matchFixture(b)
	db.Compile() // steady state: snapshot built before timing starts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		if got := db.Match(c.Sig); len(got) != db.Len() {
			b.Fatal("bad match vector")
		}
	}
}

// BenchmarkDatabaseMatchAppend measures the append-style form of Match:
// the same compiled fast path, but the caller recycles the result
// buffer across windows, so the steady state is allocation-free without
// owning a MatchScratch.
func BenchmarkDatabaseMatchAppend(b *testing.B) {
	db, cands := matchFixture(b)
	dst := db.MatchAppend(cands[0].Sig, nil) // warm the buffer to Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		dst = db.MatchAppend(c.Sig, dst[:0])
		if len(dst) != db.Len() {
			b.Fatal("bad match vector")
		}
	}
}

// BenchmarkDatabaseMatchCompiled measures the zero-allocation steady
// state: compiled snapshot + caller-owned scratch.
func BenchmarkDatabaseMatchCompiled(b *testing.B) {
	db, cands := matchFixture(b)
	cdb := db.Compile()
	var scratch dot11fp.MatchScratch
	cdb.MatchInto(cands[0].Sig, &scratch) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		if got := cdb.MatchInto(c.Sig, &scratch); len(got) != cdb.Len() {
			b.Fatal("bad match vector")
		}
	}
}

// BenchmarkDatabaseMatchAll measures the batched parallel entry point
// over the full candidate set.
func BenchmarkDatabaseMatchAll(b *testing.B) {
	db, cands := matchFixture(b)
	cdb := db.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := cdb.MatchAll(cands)
		if len(rows) != len(cands) {
			b.Fatal("bad batch")
		}
	}
	b.ReportMetric(float64(len(cands)), "candidates/op")
}

// TestCompiledMatchZeroAllocs pins the acceptance criterion: the
// compiled match path must not allocate in steady state.
func TestCompiledMatchZeroAllocs(t *testing.T) {
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	if err := db.Train(microTrace); err != nil {
		t.Fatal(err)
	}
	cands := dot11fp.CandidatesIn(microTrace, time.Minute, cfg)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	cdb := db.Compile()
	var scratch dot11fp.MatchScratch
	cdb.MatchInto(cands[0].Sig, &scratch)
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range cands {
			if got := cdb.MatchInto(c.Sig, &scratch); len(got) != cdb.Len() {
				t.Fatal("bad match vector")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled match allocated %v times per sweep, want 0", allocs)
	}
}

// BenchmarkCandidatesIn measures the streaming single-pass windowed
// extraction over the micro trace.
func BenchmarkCandidatesIn(b *testing.B) {
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := dot11fp.CandidatesIn(microTrace, time.Minute, cfg); len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
	b.ReportMetric(float64(len(microTrace.Records)), "records/op")
}

func BenchmarkCosine512(b *testing.B) {
	h1 := histogram.New(512, 10)
	h2 := histogram.New(512, 10)
	for i := 0; i < 5_000; i++ {
		h1.Add(float64(i % 5120))
		h2.Add(float64((i * 7) % 5120))
	}
	f1, f2 := h1.Freqs(), h2.Freqs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := histogram.Cosine(f1, f2); s < 0 {
			b.Fatal("negative similarity")
		}
	}
}

func BenchmarkSimulatorMinute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := dot11fp.GenerateOffice("bench-sim", uint64(i+1), time.Minute, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tr.Records)), "records/op")
	}
}

func BenchmarkPcapRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := dot11fp.WritePcap(&buf, microTrace); err != nil {
			b.Fatal(err)
		}
		tr, err := dot11fp.ReadPcap(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Records) != len(microTrace.Records) {
			b.Fatalf("round trip lost records: %d vs %d", len(tr.Records), len(microTrace.Records))
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkStreamReaderDecode measures the capture decode layer alone —
// pcap framing, radiotap or Prism metadata and the 802.11 header — by
// streaming the micro trace's pcap encoding through PcapStream.Next.
// One op is the whole capture; ns/frame is the per-record cost.
func BenchmarkStreamReaderDecode(b *testing.B) {
	for _, lt := range []struct {
		name string
		link uint32
	}{{"radiotap", dot11fp.LinkTypeRadiotap}, {"prism", dot11fp.LinkTypePrism}} {
		b.Run(lt.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := dot11fp.WritePcapLinkType(&buf, microTrace, lt.link); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			var frames int
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr, err := dot11fp.ReadPcapStream(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := sr.Next(); err != nil {
						if err != io.EOF {
							b.Fatal(err)
						}
						break
					}
					frames++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
		})
	}
}

// BenchmarkDBCodec compares the two checkpoint codecs over the micro
// fixture's trained database — the JSON interop path against the
// binary format the trainer's SIGHUP checkpoints use — and times the
// Compile that follows every cold start's load.
func BenchmarkDBCodec(b *testing.B) {
	db, _ := matchFixture(b)
	var jsonBuf, binBuf bytes.Buffer
	if err := db.Save(&jsonBuf); err != nil {
		b.Fatal(err)
	}
	if err := db.SaveBinary(&binBuf); err != nil {
		b.Fatal(err)
	}
	b.Run("save-json", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := db.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("save-binary", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := db.SaveBinary(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("load-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dot11fp.LoadDatabase(bytes.NewReader(jsonBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(jsonBuf.Len()))
	})
	b.Run("load-binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dot11fp.LoadBinaryDatabase(bytes.NewReader(binBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(binBuf.Len()))
	})
	// compile: a fresh Compile of a ≥1k-reference database (the micro
	// fixture's references repeated under new addresses). Compile caches
	// its snapshot, so each iteration compiles a database loaded anew
	// from the checkpoint, with the load off the clock.
	b.Run("compile", func(b *testing.B) {
		big := dot11fp.NewDatabase(db.Config(), db.Measure())
		devs := db.Devices()
		for i := 0; big.Len() < 1024; i++ {
			addr := dot11fp.Addr{0x02, 0xfb, 0, byte(i >> 16), byte(i >> 8), byte(i)}
			if err := big.Add(addr, db.Signature(devs[i%len(devs)])); err != nil {
				b.Fatal(err)
			}
		}
		var ckpt bytes.Buffer
		if err := big.SaveBinary(&ckpt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, err := dot11fp.LoadBinaryDatabase(bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			fresh.Compile()
		}
		b.ReportMetric(float64(big.Len()), "refs")
	})
}

// BenchmarkEngineEnroll measures the full online-enrollment loop: a
// cold-started engine over the micro trace with the trainer promoting
// every completed window — push, window rollover, matching, enrollment
// accumulation, promotion and hot-swap included.
func BenchmarkEngineEnroll(b *testing.B) {
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainer := dot11fp.NewTrainer(cfg, dot11fp.MeasureCosine, dot11fp.TrainerOptions{Update: true})
		eng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
			Window:  time.Minute,
			Trainer: trainer,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.PushTrace(microTrace)
		eng.Close()
		if trainer.Stats().Refs == 0 {
			b.Fatal("nothing enrolled")
		}
	}
	b.ReportMetric(float64(len(microTrace.Records)), "records/op")
}

// engineFixture builds a trained compiled database plus a flat record
// slice for the push-path benchmarks.
func engineFixture(tb testing.TB) (*dot11fp.CompiledDB, dot11fp.Config) {
	tb.Helper()
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	if err := db.Train(microTrace); err != nil {
		tb.Fatal(err)
	}
	return db.Compile(), cfg
}

// BenchmarkEnginePush measures the per-frame ingestion cost of the
// streaming engine within a detection window (no rollover in the inner
// loop): the steady state of a live monitor.
func BenchmarkEnginePush(b *testing.B) {
	cdb, cfg := engineFixture(b)
	eng, err := dot11fp.NewEngine(cfg, cdb, dot11fp.EngineOptions{Window: 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	recs := microTrace.Records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := recs[i%len(recs)]
		rec.T = recs[i%len(recs)].T % 3_600_000_000 // keep inside one huge window
		eng.Push(&rec)
	}
	b.StopTimer()
	eng.Close()
}

// BenchmarkEngineStream measures the whole streaming pipeline — push,
// window rollover, matching, event emission — over the micro trace.
func BenchmarkEngineStream(b *testing.B) {
	cdb, cfg := engineFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := 0
		eng, err := dot11fp.NewEngine(cfg, cdb, dot11fp.EngineOptions{
			Window: time.Minute,
			Sink:   dot11fp.SinkFunc(func(dot11fp.Event) { events++ }),
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.PushTrace(microTrace)
		eng.Close()
		if events == 0 {
			b.Fatal("no events")
		}
	}
	b.ReportMetric(float64(len(microTrace.Records)), "records/op")
}

// shardedStream synthesises the multi-sender steady-state workload of
// the sharded benchmarks: nSenders stations transmitting round-robin
// with a deterministic mix of classes and sizes, one record every µs.
func shardedStream(nSenders, nRecords int) []dot11fp.Record {
	senders := make([]dot11fp.Addr, nSenders)
	for i := range senders {
		senders[i] = dot11fp.Addr{0x02, 0, 0, 0, byte(i >> 8), byte(i)}
	}
	recs := make([]dot11fp.Record, nRecords)
	x := uint64(1)
	for i := range recs {
		x = x*6364136223846793005 + 1442695040888963407
		recs[i] = dot11fp.Record{
			T:        int64(i) * 40,
			Sender:   senders[i%nSenders],
			Class:    dot11fp.FrameClass(x % 3), // data/qos-data/null mix
			Size:     int(200 + x%1200),
			RateMbps: 24,
			FCSOK:    true,
		}
	}
	return recs
}

// shardedRefs trains a reference database over the synthetic stream so
// the benchmark's window closes carry a realistic matching load.
func shardedRefs(tb testing.TB, recs []dot11fp.Record, cfg dot11fp.Config) *dot11fp.CompiledDB {
	tb.Helper()
	tr := &dot11fp.Trace{Records: recs}
	db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	if err := db.Train(tr); err != nil {
		tb.Fatal(err)
	}
	return db.Compile()
}

// BenchmarkShardedPush measures aggregate ingest throughput of the
// sharded engine on a multi-sender synthetic stream — accumulation and
// window matching included, both of which parallelise across shards —
// at 1, 4 and GOMAXPROCS shards. The shards=1 row is the single-core
// pipeline baseline the speedup is read against; the producer (router)
// side is ~10% of the per-frame cost, so shard counts up to ~8 scale
// near-linearly on real cores. Replaying the pre-built stream wraps its
// clock every len(recs) frames, which closes a window exactly like the
// batch semantics and keeps harness cost out of the measured loop.
func BenchmarkShardedPush(b *testing.B) {
	cfg := dot11fp.Config{Param: dot11fp.ParamSize, MinObservations: 10}
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	// 64 senders is a light cell (windows are cheap: ingestion-bound);
	// 1024 senders × 1024 references is the dense cell, where window
	// matching dominates and sharding pays the most.
	for _, nSenders := range []int{64, 1024} {
		recs := shardedStream(nSenders, 1<<18)
		cdb := shardedRefs(b, recs[:1<<17], cfg)
		for _, shards := range counts {
			b.Run(fmt.Sprintf("senders=%d/shards=%d", nSenders, shards), func(b *testing.B) {
				eng, err := dot11fp.NewShardedEngine(cfg, cdb, dot11fp.ShardedOptions{
					// ~10 s of stream per window: every window close
					// matches nSenders candidates against nSenders
					// references.
					Window: 10 * time.Second,
					Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Push(&recs[i%len(recs)])
				}
				b.StopTimer()
				eng.Close()
				st := eng.Stats()
				if st.Frames != uint64(b.N) || st.DroppedFrames != 0 {
					b.Fatalf("lost frames: %+v", st)
				}
			})
		}
	}
}

// TestShardedPushZeroAllocs extends the serial zero-alloc pin to the
// sharded engine: once a window's senders are established, the
// steady-state push path — routing, batching, queue transfer,
// accumulation — allocates nothing per frame. Window closes and new
// senders amortise to well under 1% of frames and are excluded here by
// keeping the window open.
func TestShardedPushZeroAllocs(t *testing.T) {
	cfg := dot11fp.Config{Param: dot11fp.ParamSize, MinObservations: 10}
	recs := shardedStream(64, 1<<14)
	eng, err := dot11fp.NewShardedEngine(cfg, nil, dot11fp.ShardedOptions{
		Window: 24 * time.Hour,
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := int64(0)
	sweep := func() {
		for i := range recs {
			rec := recs[i]
			rec.T = clock
			clock += 40
			eng.Push(&rec)
		}
	}
	sweep() // establish the window's senders and batch recycling
	allocs := testing.AllocsPerRun(10, sweep)
	if perFrame := allocs / float64(len(recs)); perFrame > 0.01 {
		t.Fatalf("sharded push allocated %.1f times per %d-record sweep (%.4f/frame), want ~0",
			allocs, len(recs), perFrame)
	}
	eng.Close()
}

// ensembleFixture trains a three-parameter fused reference set over
// the micro trace for the ensemble push benchmarks.
func ensembleFixture(tb testing.TB) (*dot11fp.CompiledEnsemble, []dot11fp.Config) {
	tb.Helper()
	cfgs := []dot11fp.Config{
		{Param: dot11fp.ParamInterArrival},
		{Param: dot11fp.ParamSize},
		{Param: dot11fp.ParamRate},
	}
	ens, err := dot11fp.NewEnsemble(dot11fp.MeasureCosine, cfgs...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ens.Train(microTrace); err != nil {
		tb.Fatal(err)
	}
	return ens.Compile(), cfgs
}

// BenchmarkEnsemblePush measures the per-frame ingestion cost of the
// fused streaming engine within a detection window: every member
// parameter extracted per frame against the shared inter-arrival
// context — the steady state of a multi-parameter live monitor.
func BenchmarkEnsemblePush(b *testing.B) {
	ce, cfgs := ensembleFixture(b)
	eng, err := dot11fp.NewEnsembleEngine(cfgs, ce, dot11fp.EngineOptions{Window: 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	recs := microTrace.Records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := recs[i%len(recs)]
		rec.T = recs[i%len(recs)].T % 3_600_000_000 // keep inside one huge window
		eng.Push(&rec)
	}
	b.StopTimer()
	eng.Close()
}

// TestEnsemblePushZeroAllocs pins the fusion PR's acceptance criterion:
// once a window's senders are established, pushing a frame through the
// ensemble engine allocates nothing — N parameters per frame cost N
// histogram increments, not N allocations.
func TestEnsemblePushZeroAllocs(t *testing.T) {
	ce, cfgs := ensembleFixture(t)
	eng, err := dot11fp.NewEnsembleEngine(cfgs, ce, dot11fp.EngineOptions{Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Establish the senders and histograms of the open window.
	recs := make([]dot11fp.Record, len(microTrace.Records))
	copy(recs, microTrace.Records)
	for i := range recs {
		recs[i].T %= 3_600_000_000
		eng.Push(&recs[i])
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range recs {
			eng.Push(&recs[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("ensemble push allocated %v times per %d-record sweep, want 0", allocs, len(recs))
	}
	eng.Close()
}

// TestEnginePushZeroAllocs pins the redesign's acceptance criterion:
// once a window's senders are established, pushing a frame allocates
// nothing — no per-frame trace materialisation, no hidden buffering.
func TestEnginePushZeroAllocs(t *testing.T) {
	cdb, cfg := engineFixture(t)
	eng, err := dot11fp.NewEngine(cfg, cdb, dot11fp.EngineOptions{Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Establish the senders and histograms of the open window.
	recs := make([]dot11fp.Record, len(microTrace.Records))
	copy(recs, microTrace.Records)
	for i := range recs {
		recs[i].T %= 3_600_000_000
		eng.Push(&recs[i])
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range recs {
			eng.Push(&recs[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("engine push allocated %v times per %d-record sweep, want 0", allocs, len(recs))
	}
	eng.Close()
}

// benchSource replays a fixed record slice — the cheapest possible
// RecordSource, so MultiStream's own merge and supervision overhead
// dominates the measurement.
type benchSource struct {
	recs []dot11fp.Record
	pos  int
}

func (s *benchSource) Next() (dot11fp.Record, error) {
	if s.pos >= len(s.recs) {
		return dot11fp.Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// deadSource is the permanently unplugged radio: every read fails.
type deadSource struct{}

func (deadSource) Next() (dot11fp.Record, error) {
	return dot11fp.Record{}, errors.New("radio unplugged")
}

// BenchmarkMultiStreamDegraded measures the merged-stream drain with
// every lane healthy against the degraded steady state where one lane
// is permanently down — the cost a dead radio imposes on the survivors,
// which supervision promises is a retirement, not a tax.
func BenchmarkMultiStreamDegraded(b *testing.B) {
	const lanes = 4
	perLane := make([][]dot11fp.Record, lanes)
	for i, r := range microTrace.Records {
		perLane[i%lanes] = append(perLane[i%lanes], r)
	}
	sup := dot11fp.Supervisor{
		Reopen:      func(int) (dot11fp.RecordSource, error) { return nil, errors.New("still unplugged") },
		MaxAttempts: 1,
		Backoff:     time.Microsecond,
		MaxBackoff:  time.Microsecond,
	}
	run := func(b *testing.B, degraded bool) {
		b.ReportAllocs()
		var total int
		for i := 0; i < b.N; i++ {
			srcs := make([]dot11fp.RecordSource, 0, lanes)
			for l := 0; l < lanes-1; l++ {
				srcs = append(srcs, &benchSource{recs: perLane[l]})
			}
			if degraded {
				srcs = append(srcs, deadSource{})
			} else {
				srcs = append(srcs, &benchSource{recs: perLane[lanes-1]})
			}
			stream := dot11fp.NewMultiStreamOpts(dot11fp.MultiOptions{
				Mode: dot11fp.MergeByTime, Supervisor: sup,
			}, srcs...)
			n := 0
			for {
				if _, err := stream.Next(); err != nil {
					break
				}
				n++
			}
			stream.Close()
			total += n
		}
		b.ReportMetric(float64(total)/float64(b.N), "records/op")
	}
	b.Run("healthy", func(b *testing.B) { run(b, false) })
	b.Run("one-source-down", func(b *testing.B) { run(b, true) })
}

// randomizedTrace is a MAC-randomizing office capture shared by the
// clustering benchmarks: every client rotates its sender address per
// probe burst, so the push path exercises the content-resolve branch.
var randomizedTrace = func() *dot11fp.Trace {
	p := dot11fp.ScenarioParams{
		Name: "micro-rand", Seed: 5, Duration: 4 * time.Minute, Stations: 10,
		Encrypted: true, CaptureLossProb: 0.01, RandomizedFrac: 1,
	}
	tr, _, err := dot11fp.GenerateScenario(p)
	if err != nil {
		panic(err)
	}
	return tr
}()

// BenchmarkClusterPush measures the per-frame ingestion cost of the
// streaming engine with the clustering stage attached, against the
// no-cluster baseline on the same randomized trace — the price of
// resolving every sender through the content clusterer.
func BenchmarkClusterPush(b *testing.B) {
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	for _, clustered := range []bool{false, true} {
		name := "baseline"
		var cl *dot11fp.Clusterer
		if clustered {
			name = "clustered"
			cl = dot11fp.NewClusterer(0)
		}
		b.Run(name, func(b *testing.B) {
			eng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
				Window:  24 * time.Hour,
				Cluster: cl,
			})
			if err != nil {
				b.Fatal(err)
			}
			recs := randomizedTrace.Records
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := recs[i%len(recs)]
				rec.T = rec.T % 3_600_000_000 // keep inside one huge window
				eng.Push(&rec)
			}
			b.StopTimer()
			eng.Close()
		})
	}
}
