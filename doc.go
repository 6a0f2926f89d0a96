// Package dot11fp is a library for passive 802.11 device fingerprinting,
// reproducing "An Empirical Study of Passive 802.11 Device
// Fingerprinting" (Neumann, Heen, Onno — ICDCS 2012).
//
// A device is fingerprinted from global network parameters any standard
// wireless card in monitor mode can observe — transmission rate, frame
// size, medium access time, transmission time and frame inter-arrival
// time — without sending a single frame and without reading any header
// field the target controls. Signatures are per-frame-type
// percentage-frequency histograms compared by weighted cosine
// similarity.
//
// # Quick start
//
//	trace, _ := dot11fp.GenerateOffice("demo", 1, 10*time.Minute, 12)
//	train, live := dot11fp.Split(trace, 3*time.Minute)
//
//	db := dot11fp.NewDatabase(dot11fp.DefaultConfig(dot11fp.ParamInterArrival), dot11fp.MeasureCosine)
//	db.Train(train)
//
//	for _, cand := range dot11fp.CandidatesIn(live, 5*time.Minute, db.Config()) {
//	    best, _ := db.Best(cand.Sig)
//	    fmt.Printf("window %d: %v looks like %v (sim %.3f)\n",
//	        cand.Window, dot11fp.Addr(cand.Addr), best.Addr, best.Sim)
//	}
//
// Real captures enter the pipeline through ReadPcap or ReadPcapStream
// (radiotap or AVS/Prism link type); the bundled simulator substitutes
// for the paper's testbed and CRAWDAD traces, as detailed in DESIGN.md.
// Both readers share one decoder, built to keep up with a busy channel:
// each pcap record is copied once out of the read buffer, the radiotap
// field layout is computed once per capture rather than per frame, and
// the 802.11 header is read through a table indexed by the frame
// control's low byte. The straightforward decoders (radiotap.Decode,
// dot11.Decode) stay as the reference, and the fuzz targets check that
// the fast path yields the same records, skips and errors.
//
// # Streaming
//
// The paper's detection loop is online: a passive monitor watches
// frames arrive and re-identifies every candidate once per 5-minute
// detection window. Engine is that loop as a push-based API — no
// materialised trace, O(live senders + references) memory, and an
// allocation-free per-frame path (TestEnginePushZeroAllocs pins it).
// Each record is pushed as it is captured; when one crosses a window
// boundary the closed window's candidates are matched against the
// compiled references and typed events (CandidateMatched,
// UnknownDevice, CandidateDropped, WindowClosed) are delivered to the
// caller's sink, synchronously on the pushing goroutine. Verdicts
// stream: each is delivered, in the window's order, as soon as its
// candidate and every candidate before it are matched, while the
// matching workers (EngineOptions.Workers) carry on with the rest; the
// window's drops, WindowClosed and the trainer step follow its last
// verdict. The order of events never depends on timing. A verdict
// carries its best reference and the ranked top k (see "Indexed
// matching"):
//
//	eng, _ := dot11fp.NewEngine(cfg, db.Compile(), dot11fp.EngineOptions{
//	    Sink: dot11fp.SinkFunc(func(ev dot11fp.Event) {
//	        if m, ok := ev.(dot11fp.CandidateMatched); ok {
//	            fmt.Printf("window %d: %v is %v (sim %.3f)\n",
//	                m.Window, m.Addr, m.Best.Addr, m.Best.Sim)
//	        }
//	    }),
//	})
//	stream, _ := dot11fp.ReadPcapStream(liveFeed) // record-at-a-time, O(1) memory
//	for {
//	    rec, err := stream.Next()
//	    if err != nil {
//	        break
//	    }
//	    eng.Push(&rec)
//	}
//	eng.Close()
//
// Engine.SetDB hot-swaps the reference database mid-stream (live
// retraining without dropping a frame), and Engine.Stats exposes
// frames/s, live senders and per-verdict counters. The batch paths are
// thin adapters over the same code: CandidatesIn replays a trace
// through the engine's window accumulator and Evaluate drives an
// Engine, so batch and streaming output are bit-identical
// (TestEngineBitIdenticalToBatch). See cmd/fingerprintd for the
// pipeline as a live monitoring service (one capture or stdin up to
// many merged feeds) and examples/livestream for the API end to end.
// Under the hood a single-parameter engine is the fused engine of
// "Multi-parameter fusion" with one member.
//
// # Scaling
//
// The detection loop is per-sender and windowed, which makes it
// shardable by transmitter address. ShardedEngine is the concurrent
// form of Engine: a router on the pushing goroutine applies the global
// window clock and attribution rules, computes each observation's
// parameter value against the stream-wide inter-arrival context, and
// hash-partitions the observations across N shards (default
// GOMAXPROCS). Each shard owns its accumulator and is fed through an
// SPSC batch queue; a merger joins per-shard results back into one
// event stream. At a window close each shard ships its slice of the
// window to the merger as soon as it is drained, then matches it
// candidate by candidate, and the merger delivers each verdict, in the
// merged window order, the moment its row is matched — verdicts stream
// here too. Because windowing and parameter values are computed
// globally, the merged stream is identical to the serial Engine's —
// same events, same order — for every shard count
// (TestShardedIdenticalToSerial); shard count changes wall-clock
// behaviour only.
//
//	eng, _ := dot11fp.NewShardedEngine(cfg, db.Compile(), dot11fp.ShardedOptions{
//	    Shards:       0,                                   // one shard per core
//	    Backpressure: dot11fp.BackpressureBlock,           // lossless flow control
//	    Limits:       dot11fp.SenderLimits{MaxSenders: 10_000},
//	    Sink:         sink,
//	})
//
// Backpressure is explicit: Block (default) makes Push wait when a
// shard queue fills, so a slow sink throttles the producer losslessly;
// Drop bounds ingest latency instead, discarding observations under
// pressure and counting them in Stats.DroppedFrames (window clocking is
// never dropped). Events are delivered asynchronously on an internal
// goroutine; Flush and Close block until every flushed window's events
// have reached the sink.
//
// Sender state is boundable on both engines via SenderLimits: a
// MaxSenders cap evicts least-recently-seen senders (batched, so the
// scan amortises), and IdleEvict sweeps senders silent for longer than
// the bound — under MAC randomization, apparent senders outnumber
// physical devices by orders of magnitude, and an unbounded map grows
// with every address ever seen. Evicted senders surface as
// CandidateDropped events with Evicted set, so the information loss is
// explicit in the event stream (individually up to a per-window record
// cap — beyond it evictions are counted, not listed, so even the
// bookkeeping stays bounded under a MAC flood); with limits unset,
// state is unbounded
// and output stays bit-identical to the batch pipeline. Eviction is
// deterministic given the record stream (per shard, once sharded).
//
// Stats snapshots are consistent: the window-scoped counters are
// updated as one group, while Frames/DroppedFrames are monotonic
// ingest-side counters that may run ahead of them by the records still
// in flight.
//
// # Online enrollment
//
// The paper trains references offline, on a captured prefix. A monitor
// that serves live feeds must also learn while it watches: Trainer
// closes the loop from the event stream back into the reference set.
// Attached to either engine (EngineOptions.Trainer /
// ShardedOptions.Trainer — the engine's db argument is then nil, the
// trainer owns the references), it accumulates each unknown sender's
// window signatures over an enrollment horizon (TrainerOptions.Horizon
// windows and MinObservations observations), applies the enrollment
// policy — EnrollAuto, EnrollConfirm with a callback, a deny-list —
// and promotes completed signatures into its private copy-on-write
// references (an Ensemble of one member for NewTrainer), compiling and
// hot-swapping the engine so the next window matches against the grown
// reference set. Promotions surface as typed
// events: EnrollmentProgress per pending sender, DeviceEnrolled per
// promotion, and exactly one DBSwapped per promotion batch.
//
//	trainer := dot11fp.NewTrainer(cfg, dot11fp.MeasureCosine, dot11fp.TrainerOptions{
//	    Horizon: 2,          // windows a sender must be a candidate in
//	    MaxPending: 10_000,  // bound accumulation state under MAC churn
//	})
//	eng, _ := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
//	    Sink: sink, Trainer: trainer, // cold start: refs learned live
//	})
//
// Because accumulation reuses the same window signatures the engines
// extract, live enrollment is exact, not approximate: a database
// enrolled over the first K windows of a stream (Horizon 1, Update on)
// is bit-identical — same references, same insertion order, same
// MatchAll scores — to one batch-trained per window on the same
// prefix, on both the serial and the sharded engine
// (TestTrainerLiveEqualsBatch). NewTrainerFrom seeds a warm start from
// an existing database (deep-copied); TrainerOptions.Update keeps
// enrolled references learning from re-observations.
//
// Trainer.Database() snapshots the working references under the
// trainer's lock for checkpointing. Database.SaveBinary/LoadBinary is
// the checkpoint codec — a versioned binary format roughly an order of
// magnitude faster and smaller than the JSON interop path (which Save/
// Load keep serving), so SIGHUP-triggered checkpoints do not stall
// ingestion; corrupt or truncated checkpoints surface as typed errors
// (ErrBinaryDatabase, ErrBinaryVersion; fuzzed). cmd/fingerprintd
// wires the whole loop: -enroll / -enroll-windows turn on live
// enrollment (cold start with -ref 0), -save checkpoints on SIGHUP,
// periodically (-checkpoint-every) and at shutdown — generation-chained
// writes, see Fault tolerance — and -db restores either codec, for a
// single feed as for several.
//
// Multiple monitors feed one engine through a merged record stream
// (NewMultiStreamOpts): each source decodes on its own goroutine into a
// per-source queue, publishing every record as soon as it is decoded
// (none is held back to fill a batch, so a live feed adds no latency),
// and the merge drains each queue in bulk — one lock per batch of up to
// 512 records, not one channel operation per record. The merge
// interleaves by timestamp (deterministic, for synced or rebased
// captures; ties go to the lowest source index) or by arrival (live
// FIFOs; each source's order is kept). cmd/fingerprintd packages the
// whole stack as a daemon — multi-source ingest, sharded engine,
// periodic stats, graceful drain on SIGINT/SIGTERM.
//
// # Fault tolerance
//
// A passive monitor's failure modes are mundane and constant: radios
// unplug, drivers wedge, tcpdump writers hang up mid-record, disks
// fill during a checkpoint. The pipeline treats each as a degradation,
// never a termination.
//
// Ingest: NewMultiStreamOpts takes a Supervisor that puts every source
// under per-source supervision. A source error (or, per ReopenOnEOF, a
// FIFO's writer hang-up) triggers the Reopen factory with exponential
// backoff and seeded jitter, up to MaxAttempts before the source is
// declared permanently down; a decode-error storm trips a per-source
// circuit breaker (BreakerWindow/BreakerRate) and degrades the source
// through the same path instead of spinning on garbage. A supervised
// reopen under MergeByTime rebases the new generation onto the merged
// clock, so timestamps stay monotonic across restarts. Throughout, a
// failing source only thins the merge: healthy sources keep streaming,
// and the dead lane's retirement is visible as SourceDown/SourceUp
// events (Supervisor.Notify) and per-source SourceStats counters
// (records, decode errors, failures, reopens, state).
//
// Compute: both engines recover panics in shard, merger, matching and
// sink code — a poisoned frame costs its own batch, not the process,
// with the recovery surfaced as a ComponentPanicked event on
// ShardedOptions.HealthSink and counted in Engine/Sharded Health()
// snapshots. A panic in a matching worker is re-raised on the goroutine
// that fanned the window out, so it is recovered like any other window
// fault. Because verdicts stream, a fault mid-window loses only what
// was not yet delivered: the verdicts already emitted stand, and a
// shard that panics while matching loses only the unmatched rest of its
// slice of the window (its drops and already-matched rows are still
// delivered). ShardedOptions.Watchdog arms a stall detector that emits
// ShardStalled/ShardResumed as shards stop and resume draining; Close
// clears every stall flag once the shards have drained, since a shard
// with no queued work cannot be stalled.
// Supervision lives entirely off the per-frame path: the fault-free
// hot loops stay allocation-free and lock-free
// (TestShardedPushZeroAllocs is unchanged by all of this).
//
// Checkpoints: reference saves are generation-chained — the previous
// good checkpoint (path, path.1, …) is kept until the new file is
// fully written, fsynced, and header-verified, so a crash, ENOSPC, or
// torn write anywhere in the sequence leaves a loadable chain. Loads
// fall back generation by generation. cmd/fingerprintd wires the whole
// posture: -source-retry supervises its inputs, -checkpoint-every adds
// periodic saves with bounded retry to the SIGHUP/shutdown triggers, a
// failed save logs and keeps the previous generation, -stats lines
// include engine health and per-source state, and a run that survived
// faults (recovered panics, permanently-down sources, failed saves)
// exits 3 — degraded — instead of 0.
//
// All of it is testable on demand: internal/faultinject provides the
// seeded, schedule-driven fault wrappers (erroring/stalling/corrupting
// sources, ENOSPC/torn-write/crash filesystems, shard panic hooks) the
// chaos soak uses to replay exact failure sequences; the soak pins the
// end-to-end guarantee that senders on healthy sources produce
// bit-identical verdicts under fault injection (TestChaosSoakDeterminism)
// and that every checkpoint chain stays loadable after every failed
// save (TestChaosSoakCheckpoints).
//
// # Multi-parameter fusion
//
// The paper's conclusion leaves open "whether the fingerprinting
// method can be improved by combining several network parameters";
// Ensemble is that combination: one reference database per member
// parameter, a candidate's fused similarity the mean of its
// per-parameter similarities — robust where a single parameter is
// ambiguous (EXPERIMENTS.md records office identification reaching
// 100% with all five members). An Ensemble trains, checkpoints
// (SaveBinary — a versioned multi-database container —
// LoadBinaryEnsemble) and compiles like a Database: Compile returns a
// CompiledEnsemble with the member snapshots frozen and the
// fully-known reference set resolved once per reference change, plus
// zero-allocation (MatchInto with a reusable scratch) and batched
// (MatchAll) fused entry points.
//
// The streaming stack runs fused end to end. NewEnsembleEngine /
// NewShardedEnsembleEngine extract every member parameter in one pass
// — one window clock, one shared inter-arrival context, one signature
// per member per sender — and match each closed window on the fused
// score, emitting verdict events that carry the top k of the fused
// vector (Scores) and the per-member signatures (Sigs); with
// EngineOptions.TopK = FullVector they carry the whole fused vector plus
// the per-member vectors (ParamScores):
//
//	cfgs := []dot11fp.Config{
//	    {Param: dot11fp.ParamRate}, {Param: dot11fp.ParamSize}, {Param: dot11fp.ParamInterArrival},
//	}
//	ens, _ := dot11fp.NewEnsemble(dot11fp.MeasureCosine, cfgs...)
//	ens.Train(trainTrace)
//	eng, _ := dot11fp.NewEnsembleEngine(cfgs, ens.Compile(), dot11fp.EngineOptions{Sink: sink})
//
// This is the only engine: NewEngine / NewShardedEngine (and
// NewTrainer) build it with one member. An ensemble of one is its
// member bit for bit — one parameter's mean is its own similarity, and
// its reference order is the fused order — so the single-parameter
// streams are the one-member fused streams (TestEnsembleOfOneIdentical,
// serial and sharded, top k and FullVector). The two differ only at the
// API edge: single-parameter verdicts carry Sig instead of Sigs and
// ParamScores, and references swap through SetDB/DB (a CompiledDB)
// instead of SetEnsembleDB/EnsembleDB.
//
// The fused streams are exact: TestEnsembleEngineBitIdenticalToBatch
// pins serial and sharded fused scores bit-identical to the batch
// Ensemble path at every shard count, TestEnsemblePushZeroAllocs keeps
// the N-parameter push path allocation-free, and SetEnsembleDB
// hot-swaps fused references exactly like SetDB. Online enrollment is
// fused too: NewEnsembleTrainer accumulates one signature per member
// per pending sender and promotes them atomically (Ensemble.Add), so a
// live-enrolled ensemble never holds a device enrolled in some members
// but not others; devices that end up partially known anyway (e.g.
// separate member training) are reported by Ensemble.Partial — they
// can never match, because matching requires every member, and
// NewEnsembleTrainerFrom refuses such seeds. cmd/fingerprintd selects
// fusion with a -param comma list (-param rate,size,iat), and -save
// checkpoints the whole fused reference set in one atomic container.
//
// # MAC randomization
//
// Address-keyed fingerprinting assumes the sender address is stable;
// modern clients rotate a fresh locally-administered MAC per probe
// burst, which splits one device across many short-lived senders and
// drives identification to zero (the training prefix and the
// monitoring period never share an address). The counter is that the
// probe body itself is a fingerprint: ParseElems walks a management
// frame's information elements into Elems, and ContentKey folds the IE
// order, supported rates, capability bits and vendor payloads (which
// carry per-unit WPS UUID-E identity) into one content key that
// survives every address rotation. Three parameters score that content
// directly — ParamProbeIE (element order), ParamProbeCap (rates and
// capabilities) and ParamProbeSSID (directed-probe SSIDs) — listed in
// ContentParams and selectable as -param probe-ie,probe-cap,probe-ssid.
//
// Clusterer turns the key back into a stable identity: Resolve
// inspects each record before sender-table admission, binds every
// FCS-valid probe's sender to a canonical address derived purely from
// its content key, and rewrites subsequent frames from bound senders.
// Because the canonical address is a pure function of the content,
// independent Clusterer instances agree without coordination — the
// serial engine, the sharded engine and batch training (Apply, or a
// training stream wrapped by one Clusterer) all converge on the same
// identities, and engine events simply report canonical senders.
// EngineOptions.Cluster / ShardedOptions.Cluster enable it (nil keeps
// the zero-allocation per-frame path untouched); fingerprintd exposes
// it as -cluster, sharing one Clusterer across the training prefix and
// live monitoring so bindings stay warm over the boundary. The binding
// table is FIFO-bounded (65,536 bindings unless NewClusterer is given
// another bound) so address churn cannot grow it without limit. EXPERIMENTS.md
// quantifies the recovery: on a fully randomized office trace, fused
// identification goes from 0% to 92% at a 1% FPR budget once
// clustering is on.
//
// # Serving
//
// internal/server packages the pipeline as fingerprinting as a
// service: an HTTP face (stdlib only) the daemons mount with -listen.
// The API is multi-tenant over named sites — one site per engine plus
// its references, trainer and capture sources — rooted at
// /api/v1/sites/{site}:
//
//	GET  .../senders            last verdict per sender (bounded cache)
//	GET  .../senders/{mac}      "who is sender X": verdict + its top-k scores
//	GET  .../references         enrolled reference addresses
//	GET  .../references/{mac}   one reference's per-parameter observations
//	GET  .../enroll             pending enrollments + unanswered offers
//	POST .../enroll/{mac}       {"decision":"approve"|"reject"} (confirm mode)
//	POST .../score              score an uploaded pcap against the references
//	POST .../checkpoint         save the references (generation-chained)
//	POST .../checkpoint/load    hot-swap references from the checkpoint chain
//	GET  .../feed               server-sent-events verdict stream
//	GET  /metrics               Prometheus text over every site's snapshot
//	GET  /healthz               200 clean / 503 degraded, per-site detail
//
// Serving never touches the hot path: everything comes from the
// engines' snapshot surfaces, from a verdict cache fed at window close
// (bounded like every other per-sender map, so MAC randomization
// cannot grow the server), or from a one-shot batch engine running the
// site's own window/threshold — so a sender query answers with exactly
// the scores the batch path produces (TestSenderQueryMatchesBatch).
// The SSE feed fans events out through per-client buffers with
// non-blocking sends: a slow or dead client loses frames (counted per
// client and in /metrics), never stalls the pipeline, while a client
// that keeps up sees the engine's exact event sequence
// (TestFeedStreamsEventSequence); with no clients connected events are
// never even encoded. TestEnginePushZeroAllocs holds with the server's
// taps attached and a feed subscribed.
//
// Enrollment closes its loop over the wire: TrainerOptions.Decide is
// the three-way form of Confirm (approve / reject / defer keeps the
// sender pending and asks again next window), and the server's
// EnrollGate implements it — fingerprintd -enroll-confirm holds each
// completed sender until an operator posts the verdict. Checkpoint
// endpoints reuse the generation-chained save/load against the
// server-side -save path (clients never name paths); a trainer-owned
// site refuses loads rather than diverge from its trainer.
//
// The server is built for trusted monitoring networks: there is no
// authentication, no TLS, and the API exposes observed MAC addresses
// and traffic metadata — bind -listen to loopback or a management
// network, never a public interface (-pprof additionally mounts
// /debug/pprof). cmd/fingerprintd wires the whole face (-listen,
// -site, -pprof, -enroll-confirm) with shutdown joined to the
// SIGINT/SIGTERM drain — the API stays queryable until the final
// checkpoint is on disk, then feeds are flushed and released.
//
// # Performance
//
// Matching is the N×W×D hot loop of the methodology: every candidate
// device in every detection window is compared against every reference.
// Database.Match (and Best/Above) delegates to a compiled snapshot —
// Database.Compile returns a CompiledDB that freezes the references
// into contiguous per-class frequency matrices with precomputed weights
// and norms, built lazily and invalidated by Add/Train. The snapshot's
// results are bit-identical to evaluating SimilarityOf per pair.
//
// For steady-state matching without any allocation, hold a CompiledDB
// and a per-goroutine MatchScratch:
//
//	cdb := db.Compile()
//	var scratch dot11fp.MatchScratch
//	for _, cand := range cands {
//	    scores := cdb.MatchInto(cand.Sig, &scratch) // valid until next call
//	    ...
//	}
//
// CompiledDB.TopKInto is the bounded form of the same call — the k
// best references, selected from the same similarities and equally
// allocation-free once warm (TestTopKIntoZeroAlloc).
//
// CompiledDB is safe for concurrent use (one scratch per goroutine);
// CompiledDB.MatchAll batches a whole candidate set across GOMAXPROCS
// workers with deterministic, index-ordered results, and the Stream
// forms (MatchAllStream, TopKAllStream) hand each row to a callback, in
// index order, as soon as it and every row before it are written — the
// engines' verdicts stream through them. CandidatesIn
// streams a validation trace in a single pass, and Evaluate fans
// candidate matching out across EvalSpec.Workers (default GOMAXPROCS)
// with results bit-identical to the serial path. EXPERIMENTS.md records
// the measured numbers.
//
// Cold start — fingerprintd -db, the server's checkpoint load, every
// checkpoint-chain restore — is LoadBinary (or LoadBinaryEnsemble)
// followed by Compile, and both scale with the non-zero cells, not with
// references × frame classes × bins. The loader decodes each histogram's
// varint counts straight out of its read buffer and keeps only the
// non-zero ones (bin and count, 12 bytes), in chunks shared across
// histograms; a histogram more than two-thirds full stays dense. A
// loaded reference keeps this read-only cell form, shared by its clones,
// until its first Add or Merge; Compile walks the cells directly. On the
// fleet-match checkpoint (5.3 MB, 1,547 fused references, two 512-bin
// members, 308,641 non-zero cells of 5.28 M) the loaded ensemble holds
// ~7 MB of live heap instead of ~45 MB, and a load plus a fresh Compile
// take about 13–17 and 8–11 ms on a 2-vCPU Xeon; EXPERIMENTS.md
// ("Cold start", "Sparse reference store") has the pairs.
//
// # Indexed matching
//
// Signature histograms are sparse: a one-minute candidate fills a few
// of its 512 inter-arrival bins, a reference a few dozen. Compile
// therefore stores every reference set, at every size, as a sparse
// match index — per-class inverted postings over the non-zero signature
// bins, or CSR rows for the L1 measure, built only for the measure that
// reads them — and never builds dense N×bins matrices.
//
// There is one match kernel, and everything reads its output: a
// postings scatter. Per class, only the postings of the candidate's own
// non-zero bins are walked, each adding its term into a per-reference
// accumulator kept in the MatchScratch, and each touched reference's
// sum is then weighted and normalised as the naive loop does. It is
// bit-identical to the naive per-pair Similarity loop because every
// reference still sums the same non-zero terms in the same
// ascending-bin order; the terms the scatter never visits are exact +0
// adds in a full-row sum (bins the candidate lacks), which cannot
// change a sum of non-negative terms. L1, whose disjoint terms are not
// zero, keeps a per-reference union merge. The kernel's similarities
// feed three consumers:
//
//   - MatchInto and the batch forms (MatchAllScratch, MatchAllWorkers)
//     copy them out once, as the full vector, straight into the backing
//     they return;
//   - TopK/TopKInto and Best select from them: a bounded insertion over
//     the vector in reference order, so ties go to the earlier reference
//     exactly as the first strict maximum does;
//   - Above filters them with >=.
//
// A CompiledEnsemble fuses its members' vectors (summed in member
// order, divided by the member count) and then copies the fused vector
// out or selects from it the same way. Selection only ranks the scores
// the full vector holds, so every TopK, Best and Above result is
// bit-identical to ranking or filtering it, by construction;
// FuzzIndexedMatch pins all of them — single and fused, all four
// measures, planted ties — against the naive loop.
//
// What a verdict needs is the selection, not the vector: the
// identification test keeps the closest reference and an operator the
// few behind it. The engines' verdict events therefore carry the top k
// (EngineOptions.TopK / ShardedOptions.TopK; DefaultTopK = 5 when zero),
// with verdicts, Best and window summaries bit-identical to the
// FullVector run (TestEngineTopKVerdictsIdentical, at every shard
// count). FullVector restores the whole fused vector plus the per-member
// vectors; Evaluate uses it, since the similarity test sweeps every
// score. Bounding saves the vector's copy into every event and all
// that happens to it downstream — the server's sender cache, SSE
// encoding and query answers. Index shape and cost — entries, postings,
// bytes, and the dense bytes forgone — surface in Engine/Sharded
// Stats().Index, the HTTP API's site snapshot and the dot11fp_index_*
// Prometheus families. EXPERIMENTS.md records the measured curves
// ("Scatter + select").
//
// # Static analysis
//
// The guarantees above — zero allocations per frame on the push paths,
// event streams bit-identical between the serial and sharded engines,
// non-blocking verdict sinks, fsync'd checkpoint chains — are enforced
// at compile review time, not just by the tests that measure them.
// internal/analysis holds five go/analysis analyzers (fphotpath,
// fpdeterminism, fpsinksafe, fpatomicfield, fpclosecheck) driven by
// //fp: source annotations: //fp:hotpath test=TestName marks a
// per-frame root, //fp:coldpath an amortised boundary,
// //fp:deterministic (package doc) opts a package into the
// bit-identical rules, and //fp:wallclock, //fp:unordered,
// //fp:mayblock, //fp:allocok and //fp:closeok are per-line escapes
// that each require a written justification (see
// internal/analysis.Directive). `go run ./cmd/fpvet ./...` applies
// the suite to every package and CI's invariant-lint step runs it on
// every push, alongside scripts/escape_gate.sh, which intersects the
// compiler's escape analysis with the //fp:hotpath ranges and diffs
// the result against a checked-in expectation. Every //fp:hotpath
// annotation must also name the testing.AllocsPerRun test that pins
// its runtime behavior (enforced by a meta-test), so each hot-path
// invariant is held three ways: statically by the analyzer, by the
// compiler's escape analysis, and at runtime by the named test.
//
// This suite is why go.mod carries the module's only dependency,
// golang.org/x/tools (vendored): the go/analysis framework is the
// standard currency for Go static checks — the same interface vet
// itself uses — and writing the analyzers against it keeps them usable
// by any multichecker-style driver, not just cmd/fpvet's. Everything
// else in the module remains stdlib-only.
package dot11fp
