package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/histogram"
	"dot11fp/internal/pcap"
	"dot11fp/internal/radiotap"
	"dot11fp/internal/server"
)

// tracer keeps the traced run's spans in memory and writes them out
// when the run ends: per-frame call sites as aggregates under their
// parent layer, and each window's close as an individual span with the
// delivery of its verdicts as its child.
type tracer struct {
	next, push, closePush, sinkCalls agg
	layers                           []layerSpan
	windows                          []windowSpan
}

type layerSpan struct {
	Name       string  `json:"name"`
	Parent     string  `json:"parent,omitempty"`
	Calls      int64   `json:"calls"`
	TotalNs    int64   `json:"total_ns"`
	NsPerFrame float64 `json:"ns_per_frame"`
}

type windowSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// layer records one call site's aggregate, spread over frames.
func (t *tracer) layer(name, parent string, a agg, frames int) {
	t.layers = append(t.layers, layerSpan{name, parent, a.calls, a.ns, ratio(float64(a.ns), float64(frames))})
}

// sink wraps the engine's sink, timing each delivery.
func (t *tracer) sink(next engine.Sink) engine.Sink {
	return engine.SinkFunc(func(ev engine.Event) {
		start := time.Now()
		next.HandleEvent(ev)
		t.sinkCalls.observe(time.Since(start))
	})
}

// windowSpans records one traced pass's windows: the push (or Close)
// that closed each, and as its child the delivery of its verdicts.
func (t *tracer) windowSpans(p passResult) {
	if p.col == nil {
		return
	}
	for k := range p.col.stamps {
		id := 2*k + 1
		t.windows = append(t.windows, windowSpan{ID: id, Name: "engine.Push closing the window",
			StartNs: p.col.stamps[k].Load(), EndNs: p.closeEnd[k]})
		if p.col.first[k] != 0 {
			t.windows = append(t.windows, windowSpan{ID: id + 1, Parent: id, Name: "verdicts delivered",
				StartNs: p.col.first[k], EndNs: p.col.lastOf[k]})
		}
	}
}

// write stores the spans as JSON under buildDir/traces.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Layers   []layerSpan  `json:"layers"`
		Windows  []windowSpan `json:"windows"`
	}{workload, seed, t.layers, t.windows}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// traced is the per-layer measurement. A quarter of the budget replays
// untraced (the end-to-end baseline), a quarter replays with every
// Next, Push and sink call timed (the tracing overhead), and then one
// pass per layer times the calls into that layer's public functions
// over this workload's input.
func (r *runner) traced(res *result) error {
	t := &tracer{}
	share := r.o.budget() / 4
	plain := r.summarize(r.passes(share, nil))
	r.report(plain, res, false)
	traced := r.summarize(r.passes(share, t))
	for _, p := range traced.problems {
		res.fail("traced %s", p)
	}
	res.attempted = plain.attempted + traced.attempted
	res.failed = plain.failed + traced.failed
	plainFPS := bestFPS(plain.fps)
	tracedFPS := bestFPS(traced.fps)
	t.windowSpans(traced.last)
	tf := int(traced.goodFrames)
	t.layer("capture.RecordSource.Next", "pipeline", t.next, tf)
	t.layer("engine.Push (no window closed)", "pipeline", t.push, tf)
	t.layer("engine.Push (window closed)", "pipeline", t.closePush, tf)
	t.layer("engine.Sink.HandleEvent", "engine.Push (window closed)", t.sinkCalls, tf)

	// Capture: framing, radiotap, 802.11, the reader over all three, and
	// the multi-source merge.
	counts, pcapT, rtT, dotT, err := layerDecode(r.in.Pcaps)
	if err != nil {
		return err
	}
	packets := 0
	for _, n := range counts {
		packets += n
	}
	cs, err := layerCapture(r.in.Pcaps, counts)
	if err != nil {
		return err
	}
	decoded := int(cs.next.calls)
	res.add("pcap.ns_per_frame", ratio(float64(pcapT), float64(packets)), packets, "pcap.Reader.NextInto, timed per batch of calls")
	res.add("radiotap.ns_per_frame", ratio(float64(rtT), float64(packets)), packets, "radiotap.Decode, timed per batch of calls")
	res.add("dot11.ns_per_frame", ratio(float64(dotT), float64(packets)), packets, "dot11.Decode, timed per batch of calls")
	res.add("capture.ns_per_frame", cs.next.per(), decoded, "capture.StreamReader.Next, including the three above")
	res.add("capture.allocs_per_frame", ratio(float64(cs.mallocs), float64(decoded)), decoded, "heap allocations in StreamReader.Next")
	res.add("capture.bytes_per_frame", ratio(float64(cs.allocBytes), float64(decoded)), decoded, "heap bytes in StreamReader.Next")
	res.add("capture.skipped", float64(cs.skipped), packets, "records StreamReader could not decode")
	t.layer("capture.StreamReader.Next", "pipeline", cs.next, decoded)
	t.layer("pcap.Reader.NextInto", "capture.StreamReader.Next", agg{int64(packets), int64(pcapT)}, packets)
	t.layer("radiotap.Decode", "capture.StreamReader.Next", agg{int64(packets), int64(rtT)}, packets)
	t.layer("dot11.Decode", "capture.StreamReader.Next", agg{int64(packets), int64(dotT)}, packets)

	merged, merge, err := layerMerge(cs.srcs)
	if err != nil {
		return err
	}
	res.add("capture.merge_ns_per_frame", merge.per(), int(merge.calls),
		fmt.Sprintf("capture.MultiStream.Next, MergeByTime over %d source(s) of decoded records", len(cs.srcs)))
	t.layer("capture.MultiStream.Next", "pipeline", merge, int(merge.calls))
	train, mon := monitored(merged, r.w.prefix)
	if len(mon) != r.ref.frames {
		return fmt.Errorf("decoded %d monitored records, the serial reference pushed %d", len(mon), r.ref.frames)
	}
	frames := len(mon)

	// Clustering, accumulation and matching: the engine's inner layers.
	cl := layerCluster(mon)
	res.add("cluster.ns_per_frame", cl.resolve.per(), frames, "core.Clusterer.Resolve over the monitored records")
	res.add("cluster.devices", float64(cl.devices), frames, "distinct probe-content devices")
	res.add("cluster.rebinds", float64(cl.rebinds), frames, "addresses rebound to another device")
	t.layer("core.Clusterer.Resolve", "core.WindowAccumulator.Push", cl.resolve, frames)

	p := r.ref.pipe
	acc, err := layerAccumulate(p.spec, mon, r.ref.closeAt)
	if err != nil {
		return err
	}
	cands, dropped := 0, 0
	for _, w := range acc.results {
		cands += len(w.Candidates) + len(w.Multi)
		dropped += len(w.Dropped)
	}
	windows := len(acc.results)
	res.add("accumulate.ns_per_frame", acc.steady.per(), int(acc.steady.calls), "core.WindowAccumulator.Push closing no window")
	res.add("accumulate.close_us_per_window", acc.close.per()/1e3, int(acc.close.calls), "core.WindowAccumulator.Push (or Flush) closing a window")
	res.add("accumulate.live_senders_max", float64(acc.liveMax), int(acc.close.calls), "LiveSenders sampled before each window close")
	res.add("accumulate.candidates_per_window", ratio(float64(cands), float64(windows)), windows, "")
	res.add("accumulate.dropped_per_window", ratio(float64(dropped), float64(windows)), windows, "senders below the minimum-observation rule")
	t.layer("core.WindowAccumulator.Push", "engine.Push", acc.steady, frames)
	t.layer("core.WindowAccumulator.Push (window closed)", "engine.Push", acc.close, frames)

	m := layerMatch(p.cdb, p.cedb, acc.results)
	res.add("match.us_per_window", m.window.per()/1e3, int(m.window.calls), "Compiled{DB,Ensemble}.MatchAllScratch per closed window")
	res.add("match.us_per_candidate", ratio(float64(m.window.ns), float64(m.cands))/1e3, m.cands, "")
	res.add("match.ns_per_pair", ratio(float64(m.window.ns), float64(m.pairs)), m.pairs, "a pair is one candidate x reference x member")
	res.add("match.index_enabled", b2f(m.index.Enabled), 1, "1 when Compile built the sublinear index")
	res.add("match.index_postings", float64(m.index.Postings), 1, "")
	t.layer("core.Compiled.MatchAllScratch", "engine.Push (window closed)", m.window, frames)

	cos := layerCosine(acc.results, p.members)
	res.add("histogram.cosine_ns_per_pair", cos.per(), int(cos.calls), "histogram.CosineCounts over candidate x reference class histograms")

	su, err := layerSetup(p, train, mon)
	if err != nil {
		return err
	}
	trainNote := "Database/Ensemble.Train on the training prefix"
	if r.w.prefix == 0 {
		trainNote = "probe: this workload trains no references at set-up; Train over its monitored records"
	}
	res.add("setup.train_ms", su.train.Seconds()*1e3, 1, trainNote)
	res.add("setup.load_ms", su.load.Seconds()*1e3, 1, "LoadBinary/LoadBinaryEnsemble of the references' checkpoint")
	res.add("setup.compile_ms", su.compile.Seconds()*1e3, 1, "Compile of the loaded references")
	res.add("setup.refs", float64(su.refs), 1, "")

	// The engine, serial and with two shards, over pre-decoded records:
	// engineReps runs of each, alternating, and the fastest of each kept,
	// so that a slow phase of the host does not fall on one side only.
	var serial, sharded engineStats
	for rep := 0; rep < engineReps; rep++ {
		s1, err := layerEngine(p.spec, 1, mon, r.ref.closeAt)
		if err != nil {
			return err
		}
		s2, err := layerEngine(p.spec, 2, mon, r.ref.closeAt)
		if err != nil {
			return err
		}
		if rep == 0 || s1.wall < serial.wall {
			serial = s1
		}
		if rep == 0 || s2.wall < sharded.wall {
			sharded = s2
		}
	}
	serialFPS := float64(frames) / serial.wall.Seconds()
	res.add("engine.push_ns_per_frame", serial.steady.per(), int(serial.steady.calls), "serial Engine.Push closing no window")
	res.add("engine.close_push_us", serial.close.per()/1e3, int(serial.close.calls), "serial Engine.Push (or Close) closing a window: match, emit, train")
	res.add("engine.queue_depth_p50", median(sharded.queue), len(sharded.queue), "2-shard engine: deepest shard queue in batches, from Health every 4096 pushes")
	res.add("engine.queue_depth_max", maxOf(sharded.queue), len(sharded.queue), "")
	res.add("engine.serial_frames_per_s", serialFPS, frames, fmt.Sprintf("serial engine over pre-decoded records, fastest of %d runs", engineReps))
	res.add("engine.shard_speedup", ratio(float64(frames)/sharded.wall.Seconds(), serialFPS), frames, fmt.Sprintf("2-shard over serial frames per second, fastest of %d runs each, GOMAXPROCS %d", engineReps, runtime.GOMAXPROCS(0)))
	res.add("engine.dropped_frames", float64(serial.dropped+sharded.dropped), frames, "")
	t.layer("engine.Push", "pipeline", agg{int64(frames), serial.steady.ns + serial.close.ns}, frames)

	// Online enrollment: this workload's engine with a cold-start
	// trainer (randomized-served's own; a probe elsewhere).
	ts := p.spec
	ts.cdb, ts.cedb, ts.enroll = nil, nil, true
	tr, err := layerEngine(ts, 1, mon, r.ref.closeAt)
	if err != nil {
		return err
	}
	res.add("trainer.swaps", float64(tr.swaps.calls), int(tr.close.calls), "DBSwapped events of a cold-start trainer")
	res.add("trainer.swap_ms", tr.swaps.per()/1e6, int(tr.swaps.calls), "window-closing push -> DBSwapped")
	res.add("trainer.refs", float64(tr.refs), 1, "references enrolled by the end")

	srv, err := layerServer(r.ref.events, p.spec.window)
	if err != nil {
		return err
	}
	sseDropped := float64(plain.sseDropped + traced.sseDropped)
	res.add("server.sink_ns_per_event", srv.sink.per(), int(srv.sink.calls), "server.Site.Sink with one feed subscriber")
	res.add("server.publish_ns_per_event", srv.publish.per(), int(srv.publish.calls), "server.Fanout.Publish with one subscriber")
	res.add("server.query_handler_us", srv.query.per()/1e3, int(srv.query.calls), "GET .../senders/{addr} through the handler and a ResponseRecorder")
	res.add("server.sse_bytes_per_event", ratio(float64(srv.bytes), float64(srv.frames)), int(srv.frames), "")
	res.add("server.sse_dropped", sseDropped, int(plain.verdicts+traced.verdicts), "frames the run's SSE subscriber lost (randomized-served)")
	if srv.queryFailed > 0 {
		res.fail("%d handler queries did not answer 200", srv.queryFailed)
	}
	t.layer("server.Site.Sink", "engine.Sink.HandleEvent", srv.sink, frames)
	t.layer("server.Fanout.Publish", "server.Site.Sink", srv.publish, frames)

	// The layers on this workload's end-to-end path, per frame.
	sum := cs.next.per() + ratio(float64(serial.steady.ns+serial.close.ns), float64(frames))
	path := "capture.StreamReader.Next + serial engine.Push"
	if len(r.in.Pcaps) > 1 {
		sum += merge.per()
		path += " + capture.MultiStream.Next"
	}
	if r.w.served {
		sum += srv.sink.per() * float64(len(r.ref.events)) / float64(frames)
		path += " + server.Site.Sink"
	}
	// The layer passes run once each, at whatever speed the host has
	// then, so they are set against the median untraced pass, not the best.
	e2e := ratio(1e9, median(plain.fps))
	res.add("trace.layer_sum_ns_per_frame", sum, frames, path)
	res.add("trace.reconcile_ratio", ratio(sum, e2e), frames, fmt.Sprintf("layer sum / median untraced end-to-end %.1f ns per frame", e2e))
	res.add("trace.overhead_frac", 1-ratio(tracedFPS, plainFPS), len(traced.fps), "1 - traced / untraced frames_per_s, best pass of each")

	spans, err := t.write(r.w.name, r.o.seed)
	if err != nil {
		return err
	}
	res.note("spans written to %s", spans)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// Sinks keep the compiler from discarding the results of timed calls.
var (
	intSink   int
	addrSink  dot11.Addr
	floatSink float64
)

// engineReps is how many times the engine layer pass runs each engine.
const engineReps = 3

// batch is how many calls the decode layers time together, so that the
// clock costs nothing per frame.
const batch = 4096

// layerDecode times pcap framing, radiotap decoding and 802.11 header
// decoding apart, a batch of calls at a time, over every capture. It
// returns each capture's packet count and the three total times.
func layerDecode(pcaps [][]byte) (counts []int, pcapT, rtT, dotT time.Duration, err error) {
	bufs := make([][]byte, batch)
	data := make([][]byte, batch)
	hdr := make([]int, batch)
	counts = make([]int, len(pcaps))
	for i, b := range pcaps {
		pr, err := pcap.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, 0, 0, 0, err
		}
		for eof := false; !eof; {
			n := 0
			start := time.Now()
			for ; n < batch; n++ {
				p, err := pr.NextInto(bufs[n])
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					return nil, 0, 0, 0, err
				}
				bufs[n], data[n] = p.Data[:cap(p.Data)], p.Data
			}
			pcapT += time.Since(start)
			start = time.Now()
			for k := 0; k < n; k++ {
				_, hn, err := radiotap.Decode(data[k])
				if err != nil {
					hn = -1
				}
				hdr[k] = hn
			}
			rtT += time.Since(start)
			start = time.Now()
			for k := 0; k < n; k++ {
				if hdr[k] >= 0 {
					if f, err := dot11.Decode(data[k][hdr[k]:], false); err == nil {
						intSink += int(f.FC.Subtype)
					}
				}
			}
			dotT += time.Since(start)
			counts[i] += n
		}
	}
	return counts, pcapT, rtT, dotT, nil
}

// captureStats are the capture layer's measurements.
type captureStats struct {
	srcs                         [][]capture.Record // decoded records, one slice per capture
	next                         agg
	mallocs, allocBytes, skipped uint64
}

// layerCapture times capture.StreamReader.Next over every capture and
// keeps the decoded records. The record slices are sized beforehand,
// so the allocation counts are the reader's own.
func layerCapture(pcaps [][]byte, counts []int) (captureStats, error) {
	cs := captureStats{srcs: make([][]capture.Record, len(pcaps))}
	for i := range pcaps {
		cs.srcs[i] = make([]capture.Record, 0, counts[i])
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, b := range pcaps {
		sr, err := capture.NewStreamReader(bytes.NewReader(b))
		if err != nil {
			return cs, err
		}
		start := time.Now()
		for {
			rec, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return cs, err
			}
			cs.srcs[i] = append(cs.srcs[i], rec)
		}
		cs.next.add(len(cs.srcs[i]), time.Since(start))
		cs.skipped += sr.Skipped()
	}
	runtime.ReadMemStats(&m1)
	cs.mallocs, cs.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return cs, nil
}

// sliceSource replays decoded records as a capture.RecordSource.
type sliceSource struct {
	recs []capture.Record
	i    int
}

func (s *sliceSource) Next() (capture.Record, error) {
	if s.i == len(s.recs) {
		return capture.Record{}, io.EOF
	}
	s.i++
	return s.recs[s.i-1], nil
}

// layerMerge times capture.MultiStream (MergeByTime) over the decoded
// records of every capture and returns the merged stream.
func layerMerge(srcs [][]capture.Record) ([]capture.Record, agg, error) {
	total := 0
	ss := make([]capture.RecordSource, len(srcs))
	for i, recs := range srcs {
		ss[i] = &sliceSource{recs: recs}
		total += len(recs)
	}
	merged := make([]capture.Record, 0, total)
	start := time.Now()
	ms := capture.NewMultiStream(capture.MergeByTime, false, ss...)
	defer ms.Close()
	for {
		rec, err := ms.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, agg{}, err
		}
		merged = append(merged, rec)
	}
	var a agg
	a.add(len(merged), time.Since(start))
	return merged, a, nil
}

// monitored splits the merged records the way set-up does: a training
// prefix (records within prefix of the first), then the monitored rest.
func monitored(recs []capture.Record, prefix time.Duration) (train, mon []capture.Record) {
	if prefix <= 0 || len(recs) == 0 {
		return nil, recs
	}
	cut := recs[0].T + prefix.Microseconds()
	for i := range recs {
		if recs[i].T >= cut {
			return recs[:i], recs[i:]
		}
	}
	return recs, nil
}

// clusterStats are the clustering layer's measurements.
type clusterStats struct {
	resolve agg
	devices int
	rebinds uint64
}

// layerCluster times core.Clusterer.Resolve over the monitored records.
// On workloads that do not cluster it is a probe of what clustering
// would cost there.
func layerCluster(mon []capture.Record) clusterStats {
	cl := core.NewClusterer(0)
	start := time.Now()
	for i := range mon {
		addrSink = cl.Resolve(&mon[i])
	}
	var st clusterStats
	st.resolve.add(len(mon), time.Since(start))
	st.devices, st.rebinds = cl.Devices(), cl.Rebound()
	return st
}

// segments walks the monitored records in the order the pipeline sees
// them, separating the pushes that close a window from the rest: steady
// gets each run of records between closes, closing each record that
// closes a window, and finally nil for the close at the end of the
// stream.
func segments(mon []capture.Record, closeAt []int, steady func([]capture.Record), closing func(*capture.Record)) {
	i := 0
	for _, c := range closeAt {
		if c < 0 {
			break
		}
		steady(mon[i:c])
		closing(&mon[c])
		i = c + 1
	}
	steady(mon[i:])
	closing(nil)
}

// accumulateStats are the accumulation layer's measurements.
type accumulateStats struct {
	steady, close agg
	liveMax       int
	results       []*core.WindowResult
}

// layerAccumulate times core.WindowAccumulator.Push configured like the
// workload's engine (members, clustering), steady pushes and
// window-closing pushes apart, and keeps the closed windows.
func layerAccumulate(spec engineSpec, mon []capture.Record, closeAt []int) (accumulateStats, error) {
	var st accumulateStats
	emit := func(w *core.WindowResult) { st.results = append(st.results, w) }
	var acc *core.WindowAccumulator
	if len(spec.cfgs) > 1 {
		var err error
		if acc, err = core.NewEnsembleAccumulator(spec.window, spec.cfgs, emit); err != nil {
			return st, err
		}
	} else {
		acc = core.NewWindowAccumulator(spec.window, spec.cfgs[0], emit)
	}
	if spec.cluster {
		acc.SetClusterer(core.NewClusterer(0))
	}
	segments(mon, closeAt,
		func(recs []capture.Record) {
			start := time.Now()
			for i := range recs {
				acc.Push(&recs[i])
			}
			st.steady.add(len(recs), time.Since(start))
		},
		func(rec *capture.Record) {
			st.liveMax = max(st.liveMax, acc.LiveSenders())
			start := time.Now()
			if rec != nil {
				acc.Push(rec)
			} else {
				acc.Flush()
			}
			st.close.observe(time.Since(start))
		})
	return st, nil
}

// matchStats are the matching layer's measurements.
type matchStats struct {
	window       agg
	cands, pairs int
	index        core.IndexStats
}

// layerMatch times the compiled references' MatchAllScratch on every
// closed window's candidates.
func layerMatch(cdb *core.CompiledDB, cedb *core.CompiledEnsemble, results []*core.WindowResult) matchStats {
	var st matchStats
	var s core.MatchScratch
	var es core.EnsembleScratch
	refs, members := 0, 1
	switch {
	case cedb != nil:
		refs, members, st.index = cedb.Len(), len(cedb.Members()), cedb.IndexStats()
	case cdb != nil:
		refs, st.index = cdb.Len(), cdb.IndexStats()
	default:
		return st
	}
	for _, w := range results {
		start := time.Now()
		if cedb != nil {
			fused, _ := cedb.MatchAllScratch(w.Multi, &es)
			intSink += len(fused)
		} else {
			intSink += len(cdb.MatchAllScratch(w.Candidates, &s))
		}
		st.window.observe(time.Since(start))
		st.cands += len(w.Candidates) + len(w.Multi)
	}
	st.pairs = st.cands * refs * members
	return st
}

// layerCosine times histogram.CosineCounts, the kernel under cosine
// matching, over pairs of one candidate's and one reference's histogram
// of the same frame class and member.
func layerCosine(results []*core.WindowResult, members []*core.Database) agg {
	const maxPairs, maxRefs, reps = 1 << 15, 64, 8
	refs := make([][]*core.Signature, len(members))
	for m, db := range members {
		devices := db.Devices()
		for _, d := range devices[:min(len(devices), maxRefs)] {
			refs[m] = append(refs[m], db.Signature(d))
		}
	}
	var as, bs [][]uint64
	addPairs := func(m int, sig *core.Signature) {
		for _, ref := range refs[m] {
			for _, c := range sig.Classes() {
				if h, g := sig.Hist(c), ref.Hist(c); h != nil && g != nil && len(as) < maxPairs {
					as, bs = append(as, h.CountsView()), append(bs, g.CountsView())
				}
			}
		}
	}
	for _, w := range results {
		for _, c := range w.Candidates {
			if len(refs) > 0 {
				addPairs(0, c.Sig)
			}
		}
		for _, c := range w.Multi {
			for m, sig := range c.Sigs {
				if m < len(refs) {
					addPairs(m, sig)
				}
			}
		}
	}
	var a agg
	if len(as) == 0 {
		return a
	}
	start := time.Now()
	s := 0.0
	for r := 0; r < reps; r++ {
		for i := range as {
			s += histogram.CosineCounts(as[i], bs[i])
		}
	}
	a.add(reps*len(as), time.Since(start))
	floatSink = s
	return a
}

// setupStats are the set-up steps' times.
type setupStats struct {
	train, load, compile time.Duration
	refs                 int
}

// layerSetup times the set-up steps on this workload's references:
// training (from office-replay's training prefix; elsewhere, where set-up
// trains nothing, from the monitored records as a probe), then loading
// the references' binary checkpoint and compiling what was loaded.
func layerSetup(p *pipeline, train, mon []capture.Record) (setupStats, error) {
	var st setupStats
	if train == nil {
		train = mon
	}
	tr := &capture.Trace{Records: train}
	if p.spec.cluster {
		tr = core.NewClusterer(0).Apply(tr)
	}
	multi := len(p.spec.cfgs) > 1
	start := time.Now()
	if multi {
		ens, err := core.NewEnsemble(core.MeasureCosine, p.spec.cfgs...)
		if err != nil {
			return st, err
		}
		err = ens.Train(tr)
		if err != nil {
			return st, err
		}
	} else if err := core.NewDatabase(p.spec.cfgs[0], core.MeasureCosine).Train(tr); err != nil {
		return st, err
	}
	st.train = time.Since(start)

	var ckpt bytes.Buffer
	if multi {
		ens, err := core.NewEnsembleFrom(p.members...)
		if err != nil {
			return st, err
		}
		if err := ens.SaveBinary(&ckpt); err != nil {
			return st, err
		}
		start = time.Now()
		loaded, err := core.LoadBinaryEnsemble(&ckpt)
		if err != nil {
			return st, err
		}
		st.load = time.Since(start)
		start = time.Now()
		st.refs = loaded.Compile().Len()
		st.compile = time.Since(start)
		return st, nil
	}
	if err := p.members[0].SaveBinary(&ckpt); err != nil {
		return st, err
	}
	start = time.Now()
	loaded, err := core.LoadBinary(&ckpt)
	if err != nil {
		return st, err
	}
	st.load = time.Since(start)
	start = time.Now()
	st.refs = loaded.Compile().Len()
	st.compile = time.Since(start)
	return st, nil
}

// engineStats are one engine layer pass's measurements.
type engineStats struct {
	steady, close agg
	swaps         agg // window-closing push -> DBSwapped delivery (serial only)
	refs          int
	dropped       uint64
	queue         []float64 // deepest shard queue, sampled (sharded only)
	wall          time.Duration
}

// layerEngine pushes the monitored records through a fresh engine built
// from spec — serial for shards ≤ 1 — timing steady and window-closing
// pushes apart, and the trainer's swaps when one is attached.
func layerEngine(spec engineSpec, shards int, mon []capture.Record, closeAt []int) (engineStats, error) {
	var st engineStats
	var closeStart time.Time
	var sink engine.Sink
	if shards <= 1 {
		sink = engine.SinkFunc(func(ev engine.Event) {
			if _, ok := ev.(engine.DBSwapped); ok {
				st.swaps.observe(time.Since(closeStart))
			}
		})
	}
	e, tr, err := spec.build(shards, sink)
	if err != nil {
		return st, err
	}
	start := time.Now()
	segments(mon, closeAt,
		func(recs []capture.Record) {
			begin := time.Now()
			for i := range recs {
				e.Push(&recs[i])
				if shards > 1 && i%4096 == 0 {
					st.queue = append(st.queue, maxDepth(e.Health()))
				}
			}
			st.steady.add(len(recs), time.Since(begin))
		},
		func(rec *capture.Record) {
			closeStart = time.Now()
			if rec != nil {
				e.Push(rec)
			} else {
				e.Close()
			}
			st.close.observe(time.Since(closeStart))
		})
	st.wall = time.Since(start)
	st.dropped = e.Stats().DroppedFrames
	if tr != nil {
		st.refs = tr.Stats().Refs
	}
	return st, nil
}

func maxDepth(h engine.Health) float64 {
	d := 0
	for _, q := range h.QueueDepths {
		d = max(d, q)
	}
	return float64(d)
}

// serverStats are the server layer's measurements.
type serverStats struct {
	sink, publish, query agg
	frames, bytes        int64 // feed frames and bytes a subscriber received
	queryFailed          int
}

// The handler probe makes queryProbes sender queries, or fewer when
// they take longer than queryBudget (fleet-match's full score vectors).
const (
	queryProbes = 2000
	queryBudget = time.Second
)

// layerServer replays the reference events through a site's sink and
// through a bare fanout, each with one subscriber, then queries the
// site's verdict cache through the HTTP handler.
func layerServer(events []engine.Event, window time.Duration) (serverStats, error) {
	var st serverStats
	site := server.NewSite("probe", server.SiteOptions{Window: window, FeedBuffer: len(events) + 1})
	sub := site.Feed().Subscribe()
	sink := site.Sink(nil)
	var addrs []dot11.Addr
	for _, ev := range events {
		start := time.Now()
		sink.HandleEvent(ev)
		st.sink.observe(time.Since(start))
		if v, ok := verdictOf(ev); ok {
			addrs = append(addrs, v.addr)
		}
	}
	for len(sub.C) > 0 {
		st.frames++
		st.bytes += int64(len(<-sub.C))
	}
	sub.Close()

	fan := server.NewFanout(len(events) + 1)
	fsub := fan.Subscribe()
	for _, ev := range events {
		start := time.Now()
		fan.Publish(ev)
		st.publish.observe(time.Since(start))
	}
	fsub.Close()

	reg := server.NewRegistry()
	if err := reg.Add(site); err != nil {
		return st, err
	}
	h := server.New(reg, server.Options{}).Handler()
	begin := time.Now()
	for k := 0; k < queryProbes && len(addrs) > 0 && (k < 100 || time.Since(begin) < queryBudget); k++ {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/sites/probe/senders/"+addrs[k%len(addrs)].String(), nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		st.query.observe(time.Since(start))
		if rec.Code != http.StatusOK {
			st.queryFailed++
		}
	}
	return st, nil
}
