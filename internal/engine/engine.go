// Package engine is the streaming-first form of the paper's method: a
// push-based fingerprinting pipeline for live monitor feeds.
//
// The paper's detection loop is inherently online — a passive monitor
// watches frames arrive and re-identifies every candidate device once
// per 5-minute detection window (§V-A). Engine implements exactly that
// loop without ever materialising a trace: each pushed record updates
// the current window's per-sender signature accumulation (shared with
// the batch paths via core.WindowAccumulator, so streaming and batch
// extraction are one code path); when a record crosses a window
// boundary the closed window's candidates are matched against the
// compiled reference database and typed events are emitted to the
// caller's sink. Memory is O(live senders + references), independent of
// stream length, and the push path is allocation-light at steady state.
//
// The reference database is hot-swappable (SetDB), so references can be
// retrained — e.g. from a fresher training window — without dropping
// the stream.
//
// The event stream is bit-identical by contract — the same records
// yield the same events on every run and at every shard count; wall
// clock feeds only stats and supervision, never output (each read is
// annotated //fp:wallclock).
//
//fp:deterministic
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
)

const (
	// DefaultTopK is the number of ranked references a verdict event
	// carries when Options.TopK / ShardedOptions.TopK is zero.
	DefaultTopK = 5
	// FullVector, as Options.TopK / ShardedOptions.TopK, makes verdict
	// events carry the full similarity vector (and, on an ensemble
	// engine, the per-member vectors) instead of the top k.
	FullVector = -1
)

// Options parameterises an Engine.
type Options struct {
	// Window is the detection window size. Zero selects the paper's
	// 5 minutes (core.DefaultWindow); a negative value accumulates the
	// whole stream as a single window.
	Window time.Duration
	// Threshold is the identification acceptance threshold: a candidate
	// whose best similarity reaches it is emitted as CandidateMatched,
	// otherwise as UnknownDevice. The zero value accepts any best match
	// (all similarity measures are non-negative), i.e. pure arg-max
	// identification.
	Threshold float64
	// Workers caps the per-window matching fan-out, like eval.Spec:
	// 0 selects GOMAXPROCS, 1 forces the serial path. Results are
	// identical for every worker count.
	Workers int
	// TopK bounds the per-candidate verdict events to the k
	// best-matching references (ranked, ties toward the earlier
	// reference); 0 selects DefaultTopK. FullVector (any negative value)
	// carries the full similarity vector instead, plus the per-member
	// vectors (ParamScores) on an ensemble engine; bounded events omit
	// ParamScores. Verdicts and Best are bit-identical either way: the
	// ranked row is a selection from the same vector, and its first
	// entry is exactly the full vector's arg-max. What bounding saves is
	// the vector's copy into every event and everything downstream of it
	// (sinks, the server's feed and sender cache).
	TopK int
	// Limits bounds the per-window sender state (see core.SenderLimits).
	// The zero value is unbounded — bit-identical to the batch pipeline;
	// with bounds set, evicted senders surface as CandidateDropped
	// events with Evicted set and memory stays O(MaxSenders).
	Limits core.SenderLimits
	// Cluster, when set, merges randomized-MAC senders into logical
	// devices by probe-request content before sender-table admission
	// (see core.Clusterer). The engine owns the clusterer from then on:
	// it is driven from the push goroutine and must not be shared with
	// another live engine. nil — the default — disables clustering at
	// the cost of a single branch per frame.
	Cluster *core.Clusterer
	// Sink receives the engine's events; nil discards them (statistics
	// are still maintained).
	Sink Sink
	// Trainer, when set, closes the loop from the stream back into the
	// reference set: after each window's events the trainer accumulates
	// that window's candidates, promotes completed enrollments and
	// hot-swaps the engine's database, so the next window matches
	// against the grown reference set (see Trainer). The engine must
	// then be created with a nil db — the trainer owns the references
	// (seed a warm start with NewTrainerFrom).
	Trainer *Trainer
	// HealthSink receives supervision events (ComponentPanicked). On
	// the serial engine it is called on the pushing goroutine, but
	// never interleaved with the main event stream; it must not call
	// back into the engine. nil discards the events (Health still
	// counts everything).
	HealthSink Sink
}

// Stats is a point-in-time snapshot of an engine's counters.
//
// Snapshot semantics: the window-scoped counters — WindowsClosed,
// Candidates, Matched, Unknown, Dropped and Evicted — are updated as
// one group under a lock when a window's events have been emitted, so
// within any snapshot they are mutually consistent (Candidates is
// always Matched + Unknown, and all six describe the same set of
// closed windows). Frames and DroppedFrames are lock-free monotonic
// counters updated on the ingest path; they may run ahead of the
// window counters by the records still in flight (queued but not yet
// windowed, or in the currently open window). LiveSenders is an
// instantaneous gauge.
//
// The JSON field names are a stable API surface: the HTTP server and
// the /metrics encoder both serve this snapshot shape, so renaming a
// tag is a breaking change for API consumers (TestSnapshotJSONStable
// pins them).
type Stats struct {
	// Frames is the number of records pushed.
	Frames uint64 `json:"frames"`
	// DroppedFrames is the number of observations discarded by the
	// sharded engine's Drop backpressure policy. Always 0 for the
	// serial Engine.
	DroppedFrames uint64 `json:"dropped_frames"`
	// WindowsClosed is the number of detection windows emitted.
	WindowsClosed uint64 `json:"windows_closed"`
	// LiveSenders is the number of distinct senders with observations
	// in the currently open window (summed across shards).
	LiveSenders int `json:"live_senders"`
	// Candidates, Matched, Unknown and Dropped count the per-window
	// verdicts emitted so far; Candidates = Matched + Unknown in every
	// snapshot. Dropped counts below-minimum and evicted senders.
	Candidates uint64 `json:"candidates"`
	Matched    uint64 `json:"matched"`
	Unknown    uint64 `json:"unknown"`
	Dropped    uint64 `json:"dropped"`
	// Evicted counts the senders evicted under Options.Limits (a subset
	// of Dropped).
	Evicted uint64 `json:"evicted"`
	// Elapsed is the wall-clock time since the first push, in
	// nanoseconds on the wire; FramesPerSec is Frames over Elapsed.
	Elapsed      time.Duration `json:"elapsed_ns"`
	FramesPerSec float64       `json:"frames_per_sec"`
	// Index describes the installed database's compiled match index
	// (aggregated across members on an ensemble engine).
	Index core.IndexStats `json:"index"`
}

// Engine is a push-based fingerprinting pipeline. Push, PushTrace,
// Flush and Close must be called from a single goroutine; SetDB, DB and
// Stats are safe from any goroutine at any time.
//
// Every engine runs one path: it extracts its member parameters in one
// pass and matches each window against a CompiledEnsemble, emitting
// fused plus per-member score vectors. A single parameter (New) is an
// ensemble of one — its fused vector is the parameter's own, bit for
// bit — and differs only at the API edge: its verdict events carry Sig
// instead of Sigs and ParamScores, and the accessors answer in the
// CompiledDB shape (SetDB, DB) rather than the ensemble one.
//
// A closed window's verdicts stream: each is delivered as soon as its
// candidate and every earlier candidate of the window are matched,
// while the matching workers (Options.Workers) carry on, so the first
// verdicts of a large window do not wait for its last. The order of
// events is fixed regardless — verdicts in window order, then drops,
// then WindowClosed, then the trainer's events — and the sink is only
// ever called from the pushing goroutine, never concurrently.
type Engine struct {
	refSet
	opts Options
	acc  *core.WindowAccumulator

	closed  bool
	startNs atomic.Int64 // wall clock of the first push, unix ns

	frames atomic.Uint64

	// The window-scoped counters form one consistent snapshot group
	// (see Stats); they are only touched under mu.
	mu      sync.Mutex
	windows uint64
	matched uint64
	unknown uint64
	dropped uint64
	evicted uint64

	health healthState
}

// New creates an engine extracting signatures under cfg and matching
// each window's candidates against db (which may be nil to run
// extraction-only: every candidate is emitted as UnknownDevice until a
// database is installed with SetDB). A non-nil db must have been
// compiled from the same parameter and bin shape as cfg.
func New(cfg core.Config, db *core.CompiledDB, opts Options) (*Engine, error) {
	return newEngine([]core.Config{cfg}, true, asEnsemble(db), opts)
}

// NewEnsemble creates a multi-parameter engine: every member parameter
// is extracted in one pass over the stream (one window clock, one
// shared inter-arrival context, one signature per member per sender)
// and each closed window's candidates are fuse-matched against edb
// (which may be nil to run extraction-only until SetEnsembleDB installs
// one). Member configurations must carry distinct parameters; a
// non-nil edb must have been compiled from the same parameters and bin
// shapes. Verdict events carry the top k of the fused score vector
// (Scores; with FullVector the whole fused vector plus the per-member
// vectors in ParamScores) and the per-member signatures (Sigs).
func NewEnsemble(cfgs []core.Config, edb *core.CompiledEnsemble, opts Options) (*Engine, error) {
	return newEngine(cfgs, false, edb, opts)
}

// newEngine builds the one engine behind New and NewEnsemble.
func newEngine(cfgs []core.Config, single bool, refs *core.CompiledEnsemble, opts Options) (*Engine, error) {
	if opts.Window == 0 {
		opts.Window = core.DefaultWindow
	}
	if opts.TopK == 0 {
		opts.TopK = DefaultTopK
	}
	e := &Engine{opts: opts}
	e.single = single
	acc, err := core.NewEnsembleAccumulator(opts.Window, cfgs, e.handleWindow)
	if err != nil {
		return nil, err
	}
	e.acc = acc
	e.acc.SetLimits(opts.Limits)
	e.acc.SetClusterer(opts.Cluster)
	e.cfgs = e.acc.Configs() // defaults materialised
	if refs, err = opts.Trainer.attach(e, e.cfgs, refs); err != nil {
		return nil, err
	}
	if err := e.install(refs); err != nil {
		return nil, err
	}
	return e, nil
}

// asEnsemble lifts a single-parameter database into the ensemble of one
// the engines run on (nil stays nil: extraction-only).
func asEnsemble(db *core.CompiledDB) *core.CompiledEnsemble {
	if db == nil {
		return nil
	}
	return db.AsEnsemble()
}

// refSet is the reference half both engines embed: the member
// configurations, the installed compiled ensemble, and the single bit,
// which marks an engine built by New or NewSharded. The bit is read
// only by these shape accessors and where verdict events are built.
type refSet struct {
	cfgs   []core.Config
	single bool
	refs   atomic.Pointer[core.CompiledEnsemble]
}

// Config returns the extraction configuration with defaults materialised
// (the first member's, on an ensemble engine).
func (r *refSet) Config() core.Config { return r.cfgs[0] }

// Configs returns every member configuration with defaults
// materialised, or nil for a single-parameter engine.
func (r *refSet) Configs() []core.Config { return shapeConfigs(r.single, r.cfgs) }

// shapeConfigs is the Configs accessor shared by engines and trainers:
// a copy of the members, or nil in the single-parameter shape.
func shapeConfigs(single bool, cfgs []core.Config) []core.Config {
	if single {
		return nil
	}
	return append([]core.Config(nil), cfgs...)
}

// install shape-checks and atomically swaps the references the next
// closed window is matched against — the one swap behind SetDB,
// SetEnsembleDB and the trainer's promotions. On mismatch the previous
// references stay installed. A sharded engine's shards pick the new
// references up at their next window close; a swap that races a
// closing window may match that window's shards against different
// references, so swap between windows when the distinction matters.
func (r *refSet) install(refs *core.CompiledEnsemble) error {
	if refs != nil {
		got := refs.Configs()
		if len(got) != len(r.cfgs) {
			return fmt.Errorf("engine: ensemble of %d members does not match engine's %d", len(got), len(r.cfgs))
		}
		for i, cfg := range r.cfgs {
			if got[i].Param != cfg.Param || got[i].Bins != cfg.Bins {
				return fmt.Errorf("engine: database shape %v/%v does not match engine %v/%v",
					got[i].Param, got[i].Bins, cfg.Param, cfg.Bins)
			}
		}
	}
	r.refs.Store(refs)
	return nil
}

// SetDB atomically swaps the reference database the next closed window
// is matched against — live retraining without dropping the stream. A
// nil db switches the engine to extraction-only. The database must
// share the engine's parameter and bin shape; on mismatch the previous
// database stays installed. Ensemble engines swap through
// SetEnsembleDB instead.
func (r *refSet) SetDB(db *core.CompiledDB) error {
	if !r.single {
		return fmt.Errorf("engine: ensemble engine takes a compiled ensemble (SetEnsembleDB)")
	}
	return r.install(asEnsemble(db))
}

// DB returns the currently installed reference database, or nil (always
// nil on an ensemble engine; see EnsembleDB).
func (r *refSet) DB() *core.CompiledDB {
	if refs := r.refs.Load(); r.single && refs != nil {
		return refs.Members()[0]
	}
	return nil
}

// SetEnsembleDB atomically swaps the compiled ensemble the next closed
// window is fuse-matched against — SetDB for ensemble engines. A nil
// edb switches the engine to extraction-only; a mismatched one leaves
// the previous ensemble installed.
func (r *refSet) SetEnsembleDB(edb *core.CompiledEnsemble) error {
	if r.single {
		return fmt.Errorf("engine: single-parameter engine takes a compiled database (SetDB)")
	}
	return r.install(edb)
}

// EnsembleDB returns the currently installed compiled ensemble, or nil
// (always nil on a single-parameter engine).
func (r *refSet) EnsembleDB() *core.CompiledEnsemble {
	if r.single {
		return nil
	}
	return r.refs.Load()
}

// indexStats describes the installed references' match index, summed
// across members (zero with none installed).
func (r *refSet) indexStats() core.IndexStats {
	if refs := r.refs.Load(); refs != nil {
		return refs.IndexStats()
	}
	return core.IndexStats{}
}

// Push ingests one record. The record is not retained. Crossing a
// window boundary synchronously matches and emits the completed window
// (streaming its verdicts as they are matched) before the record is
// accounted to the new one. Push panics after Close.
//
//fp:hotpath test=TestEnginePushZeroAllocs
func (e *Engine) Push(rec *capture.Record) {
	if e.closed {
		panic("engine: Push after Close")
	}
	if e.frames.Add(1) == 1 {
		e.startNs.Store(time.Now().UnixNano()) //fp:wallclock throughput-stats epoch, read once on the first frame; no output depends on it
	}
	e.acc.Push(rec)
}

// PushTrace replays a materialised trace through the push path — the
// batch adapter. Output is bit-identical to pushing the records one at
// a time.
func (e *Engine) PushTrace(tr *capture.Trace) {
	for i := range tr.Records {
		e.Push(&tr.Records[i])
	}
}

// Flush closes the currently open detection window early, emitting its
// events. The next pushed record opens a fresh window on the same grid.
// Flushing exactly once, at stream end, keeps the event stream
// bit-identical to the batch pipeline over the same records.
func (e *Engine) Flush() {
	e.acc.Flush()
}

// Close flushes the open window and seals the engine; further pushes
// panic. Close is idempotent.
func (e *Engine) Close() {
	if !e.closed {
		e.acc.Flush()
		e.closed = true
	}
}

// Stats returns a snapshot of the engine's counters (see the Stats type
// for the consistency semantics).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		WindowsClosed: e.windows,
		Matched:       e.matched,
		Unknown:       e.unknown,
		Dropped:       e.dropped,
		Evicted:       e.evicted,
	}
	e.mu.Unlock()
	s.Candidates = s.Matched + s.Unknown
	s.Frames = e.frames.Load()
	s.LiveSenders = e.acc.LiveSenders()
	s.Index = e.indexStats()
	if ns := e.startNs.Load(); ns != 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - ns) //fp:wallclock stats-only elapsed/throughput; no event output depends on it
		if s.Elapsed > 0 {
			s.FramesPerSec = float64(s.Frames) / s.Elapsed.Seconds()
		}
	}
	return s
}

// Health snapshots the engine's supervision state (recovered panics in
// window delivery and trainer steps). Safe from any goroutine.
func (e *Engine) Health() Health { return e.health.snapshot() }

// handleWindow matches one closed window's candidates and emits its
// events. It runs on the pushing goroutine, under panic supervision: a
// panic — a faulting sink, a matching fault on any worker — loses that
// window's remaining events (counted in Health as an engine panic) but
// not the stream; the accumulator has already rolled to the next window
// and Push keeps working.
//
// Verdicts stream: each is emitted, on this goroutine and in window
// order, as soon as its candidate and every candidate before it are
// matched, while the workers match the rest. Drops, WindowClosed and
// the trainer step follow the window's last verdict.
//
//fp:coldpath runs once per closed window; matching and emission amortise across the window's frames
func (e *Engine) handleWindow(w *core.WindowResult) {
	defer func() {
		if r := recover(); r != nil {
			e.health.recordPanic(e.opts.HealthSink, "engine", -1, r)
		}
	}()
	sink := e.opts.Sink
	matchedN, unknownN := 0, 0
	streamRows(e.refs.Load(), e.opts.TopK, e.opts.Workers, w.Multi, func(i int, fused []core.Score, perParam [][]core.Score) {
		if emitVerdict(sink, e.opts.Threshold, e.single, &w.Multi[i], fused, perParam) {
			matchedN++
		} else {
			unknownN++
		}
	})

	evictedN := 0
	for _, d := range w.Dropped {
		if d.Evicted {
			evictedN++
		}
		if sink != nil {
			sink.HandleEvent(CandidateDropped{
				Window: w.Index, Addr: d.Addr,
				Observations: d.Observations, Minimum: e.cfgs[0].MinObservations,
				Evicted: d.Evicted,
			})
		}
	}
	// Evictions beyond the per-window record cap carry no individual
	// event but count everywhere a total does.
	candsN := len(w.Multi)
	droppedN := len(w.Dropped) + int(w.EvictedSilently)
	evictedN += int(w.EvictedSilently)
	if sink != nil {
		sink.HandleEvent(WindowClosed{
			Window: w.Index, Start: w.Start, End: w.End, Frames: w.Frames,
			Senders:    candsN + droppedN,
			Candidates: candsN,
			Matched:    matchedN, Unknown: unknownN, Dropped: droppedN,
		})
	}

	e.mu.Lock()
	e.windows++
	e.matched += uint64(matchedN)
	e.unknown += uint64(unknownN)
	e.dropped += uint64(droppedN)
	e.evicted += uint64(evictedN)
	e.mu.Unlock()

	// Enrollment happens after the window's own events: the trainer's
	// promotions swap the database the *next* window is matched against,
	// which is exactly per-window batch training's visibility.
	e.opts.Trainer.step(w.Index, w.Multi, sink, &e.health, e.opts.HealthSink)
}

// streamRows matches a window's candidates against refs across workers
// and calls emit(i, fused, perParam) on the calling goroutine for every
// candidate in window order, each as soon as its row and every row
// before it are matched — the top topK fused rows, or the full fused
// and per-member vectors for FullVector. With no references installed
// every candidate gets nil scores. Rows are handed off to emit and
// never reused, so events may retain them.
func streamRows(refs *core.CompiledEnsemble, topK, workers int, cands []core.MultiCandidate, emit func(i int, fused []core.Score, perParam [][]core.Score)) {
	switch {
	case refs == nil || refs.Len() == 0:
		for i := range cands {
			emit(i, nil, nil)
		}
	case topK > 0:
		refs.TopKAllStream(cands, topK, workers, func(i int, fused []core.Score) { emit(i, fused, nil) })
	default:
		refs.MatchAllStream(cands, workers, emit)
	}
}
