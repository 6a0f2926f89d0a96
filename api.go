package dot11fp

import (
	"io"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/eval"
	"dot11fp/internal/pcap"
	"dot11fp/internal/scenario"
	"dot11fp/internal/sim"
)

// Core fingerprinting types.
type (
	// Addr is a 48-bit MAC address.
	Addr = dot11.Addr
	// FrameClass is the frame-type classification signatures histogram over.
	FrameClass = dot11.Class
	// Param selects the network parameter a signature is built from.
	Param = core.Param
	// BinSpec shapes signature histograms.
	BinSpec = core.BinSpec
	// Config parameterises signature extraction.
	Config = core.Config
	// Measure selects the histogram similarity function.
	Measure = core.Measure
	// Signature is a device signature (Definition 1 of the paper).
	Signature = core.Signature
	// Database is a reference database of device signatures.
	Database = core.Database
	// Score is one reference device's similarity to a candidate.
	Score = core.Score
	// CompiledDB is an immutable matching-optimised database snapshot
	// with zero-allocation and batched entry points.
	CompiledDB = core.CompiledDB
	// IndexStats describes a compiled snapshot's match index, as
	// surfaced by engine stats and the /metrics endpoint.
	IndexStats = core.IndexStats
	// MatchScratch holds the reusable buffers of the zero-allocation
	// match path; the zero value is ready to use.
	MatchScratch = core.MatchScratch
	// Candidate is a device observed within one detection window.
	Candidate = core.Candidate
	// Record is one captured frame.
	Record = capture.Record
	// Trace is an ordered monitor capture.
	Trace = capture.Trace
)

// The five network parameters of the paper (§III).
const (
	ParamRate         = core.ParamRate
	ParamSize         = core.ParamSize
	ParamMediumAccess = core.ParamMediumAccess
	ParamTxTime       = core.ParamTxTime
	ParamInterArrival = core.ParamInterArrival
)

// The probe-content parameters: address-independent fingerprints of
// the management-frame element list, the handle on MAC-randomizing
// devices (see the doc.go "MAC randomization" section).
const (
	ParamProbeIE   = core.ParamProbeIE
	ParamProbeCap  = core.ParamProbeCap
	ParamProbeSSID = core.ParamProbeSSID
)

// Params lists all five network parameters in the paper's order.
var Params = core.Params

// ContentParams lists the probe-content parameters.
var ContentParams = core.ContentParams

// Measures lists all similarity measures.
var Measures = core.Measures

// Similarity measures.
const (
	MeasureCosine        = core.MeasureCosine
	MeasureIntersection  = core.MeasureIntersection
	MeasureBhattacharyya = core.MeasureBhattacharyya
	MeasureL1            = core.MeasureL1
)

// DefaultWindow is the paper's 5-minute detection window.
const DefaultWindow = core.DefaultWindow

// DefaultConfig returns the paper's extraction configuration for a
// parameter (default bins, 50-observation minimum).
func DefaultConfig(p Param) Config { return core.DefaultConfig(p) }

// DefaultBins returns the paper-calibrated histogram shape for a parameter.
func DefaultBins(p Param) BinSpec { return core.DefaultBins(p) }

// ParamByShortName resolves "rate", "size", "mtime", "txtime", "iat",
// "probe-ie", "probe-cap" or "probe-ssid".
func ParamByShortName(s string) (Param, error) { return core.ParamByShortName(s) }

// MeasureByName resolves "cosine", "intersection", "bhattacharyya" or "l1".
func MeasureByName(s string) (Measure, error) { return core.MeasureByName(s) }

// NewDatabase creates an empty reference database.
func NewDatabase(cfg Config, m Measure) *Database { return core.NewDatabase(cfg, m) }

// LoadDatabase reads a database previously written with Database.Save.
func LoadDatabase(r io.Reader) (*Database, error) { return core.Load(r) }

// LoadBinaryDatabase reads a database written with Database.SaveBinary —
// the fast checkpoint codec (JSON stays the interop format).
func LoadBinaryDatabase(r io.Reader) (*Database, error) { return core.LoadBinary(r) }

// Binary-codec errors, for errors.Is on LoadBinaryDatabase failures.
var (
	// ErrBinaryDatabase reports corrupt or truncated checkpoint bytes.
	ErrBinaryDatabase = core.ErrBinaryDatabase
	// ErrBinaryVersion reports a checkpoint from a newer format version.
	ErrBinaryVersion = core.ErrBinaryVersion
)

// Extract builds signatures for every sender in a trace under the
// Figure-1 attribution rules.
func Extract(tr *Trace, cfg Config) map[Addr]*Signature { return core.Extract(tr, cfg) }

// ExtractOne builds the signature of a single sender regardless of the
// minimum-observation rule.
func ExtractOne(tr *Trace, sender Addr, cfg Config) *Signature {
	return core.ExtractOne(tr, sender, cfg)
}

// SimilarityOf computes Algorithm 1 for one candidate/reference pair.
func SimilarityOf(candidate, reference *Signature, m Measure) float64 {
	return core.Similarity(candidate, reference, m)
}

// Split divides a trace into a training prefix and the validation rest.
func Split(tr *Trace, refDur time.Duration) (train, validation *Trace) {
	return core.Split(tr, refDur)
}

// Windows partitions a trace into detection windows.
func Windows(tr *Trace, window time.Duration) []*Trace { return core.Windows(tr, window) }

// CandidatesIn extracts the per-window candidate signatures of a
// validation trace.
func CandidatesIn(tr *Trace, window time.Duration, cfg Config) []Candidate {
	return core.CandidatesIn(tr, window, cfg)
}

// ParseAddr parses a textual MAC address in canonical colon, dash or
// bare-hex grouping.
func ParseAddr(s string) (Addr, error) { return dot11.ParseAddr(s) }

// --- multi-parameter fusion --------------------------------------------------

// Fusion types: several network parameters combined into one
// fingerprint (see the doc.go "Multi-parameter fusion" section).
type (
	// Ensemble combines several parameters' reference databases; a
	// candidate's fused similarity is the mean of its per-parameter
	// similarities.
	Ensemble = core.Ensemble
	// CompiledEnsemble is the immutable matching-optimised snapshot of
	// an Ensemble, with zero-allocation and batched entry points.
	CompiledEnsemble = core.CompiledEnsemble
	// EnsembleScratch holds the reusable buffers of the zero-allocation
	// fused match path; the zero value is ready to use.
	EnsembleScratch = core.EnsembleScratch
	// MultiCandidate is a device observed within one detection window,
	// carrying one signature per member parameter.
	MultiCandidate = core.MultiCandidate
)

// MaxEnsembleMembers bounds an ensemble's member count (the paper's
// five parameters plus the three probe-content parameters).
const MaxEnsembleMembers = core.MaxEnsembleMembers

// Clusterer merges MAC-randomizing senders into one logical device by
// probe-content fingerprint, rewriting rotated addresses to a stable
// canonical address before sender-table admission (see the doc.go
// "MAC randomization" section).
type Clusterer = core.Clusterer

// DefaultClusterBindings is NewClusterer's default bound on remembered
// address→device bindings.
const DefaultClusterBindings = core.DefaultClusterBindings

// NewClusterer creates a clustering stage remembering at most
// maxBindings rotated-address bindings (0 = DefaultClusterBindings,
// negative = unbounded).
func NewClusterer(maxBindings int) *Clusterer { return core.NewClusterer(maxBindings) }

// NewEnsemble creates an empty multi-parameter reference ensemble over
// the given extraction configurations (distinct parameters; the zero
// Measure selects cosine for every member).
func NewEnsemble(m Measure, cfgs ...Config) (*Ensemble, error) { return core.NewEnsemble(m, cfgs...) }

// NewEnsembleFrom assembles an ensemble from existing member databases
// (distinct parameters, one shared measure; adopted, not copied).
func NewEnsembleFrom(dbs ...*Database) (*Ensemble, error) { return core.NewEnsembleFrom(dbs...) }

// LoadBinaryEnsemble reads an ensemble written with Ensemble.SaveBinary
// — the versioned multi-database checkpoint container.
func LoadBinaryEnsemble(r io.Reader) (*Ensemble, error) { return core.LoadBinaryEnsemble(r) }

// --- streaming engine --------------------------------------------------------

// Streaming engine types: the push-based form of the pipeline for live
// monitor feeds (see the doc.go "Streaming" section).
type (
	// Engine is the push-based fingerprinting pipeline.
	Engine = engine.Engine
	// EngineOptions parameterises NewEngine.
	EngineOptions = engine.Options
	// EngineStats is a snapshot of an engine's counters.
	EngineStats = engine.Stats
	// Event is the engine's sealed event interface.
	Event = engine.Event
	// WindowClosed summarises one completed detection window.
	WindowClosed = engine.WindowClosed
	// CandidateMatched reports an identified candidate with its top-k
	// scores.
	CandidateMatched = engine.CandidateMatched
	// UnknownDevice reports a candidate no reference accepted.
	UnknownDevice = engine.UnknownDevice
	// CandidateDropped reports a sender below the minimum-observation rule.
	CandidateDropped = engine.CandidateDropped
	// EnrollmentProgress reports a pending sender advancing toward the
	// enrollment horizon.
	EnrollmentProgress = engine.EnrollmentProgress
	// DeviceEnrolled reports a sender promoted into the references by
	// the online trainer.
	DeviceEnrolled = engine.DeviceEnrolled
	// DBSwapped reports a trainer-driven reference hot-swap — exactly
	// one per promotion batch.
	DBSwapped = engine.DBSwapped
	// Sink receives engine events.
	Sink = engine.Sink
	// SinkFunc adapts a function to Sink.
	SinkFunc = engine.SinkFunc
	// ChannelSink forwards engine events into a channel.
	ChannelSink = engine.ChannelSink
	// WindowAccumulator is the incremental window/signature extractor
	// the engine and the batch paths share.
	WindowAccumulator = core.WindowAccumulator
	// WindowResult is one closed window as emitted by WindowAccumulator.
	WindowResult = core.WindowResult
)

// Verdict bounds for EngineOptions.TopK and ShardedOptions.TopK.
const (
	// DefaultTopK is the number of ranked references a verdict event
	// carries when TopK is zero.
	DefaultTopK = engine.DefaultTopK
	// FullVector makes verdict events carry the full similarity vector
	// (and, on an ensemble engine, the per-member vectors) instead of
	// the top k.
	FullVector = engine.FullVector
)

// NewEngine creates a streaming engine extracting signatures under cfg
// and matching each closed window against db (nil runs extraction-only;
// install references later with Engine.SetDB).
func NewEngine(cfg Config, db *CompiledDB, opts EngineOptions) (*Engine, error) {
	return engine.New(cfg, db, opts)
}

// NewEnsembleEngine creates a streaming multi-parameter engine: every
// member parameter is extracted in one pass and each closed window is
// fuse-matched against edb (nil runs extraction-only; install
// references later with Engine.SetEnsembleDB). Verdict events carry
// the top k fused scores, or with FullVector the fused plus per-member
// score vectors.
func NewEnsembleEngine(cfgs []Config, edb *CompiledEnsemble, opts EngineOptions) (*Engine, error) {
	return engine.NewEnsemble(cfgs, edb, opts)
}

// NewChannelSink creates a channel-backed event sink for NewEngine; a
// full buffer backpressures the engine (lossless).
func NewChannelSink(buffer int) *ChannelSink { return engine.NewChannelSink(buffer) }

// NewDroppingChannelSink creates a channel-backed event sink whose full
// buffer drops events (counted in ChannelSink.Dropped) instead of
// stalling the engine.
func NewDroppingChannelSink(buffer int) *ChannelSink { return engine.NewDroppingChannelSink(buffer) }

// --- online enrollment -------------------------------------------------------

// Online-enrollment types: the trainer that closes the loop from live
// streams back into the reference database (see the doc.go "Online
// enrollment" section).
type (
	// Trainer is the online-enrollment subsystem: it accumulates
	// unknown candidates over an enrollment horizon and hot-swaps
	// completed signatures into the engine's references.
	Trainer = engine.Trainer
	// TrainerOptions parameterises NewTrainer / NewTrainerFrom.
	TrainerOptions = engine.TrainerOptions
	// TrainerStats is a snapshot of a trainer's counters.
	TrainerStats = engine.TrainerStats
	// EnrollPolicy selects what happens when a sender completes the
	// horizon (EnrollAuto or EnrollConfirm).
	EnrollPolicy = engine.EnrollPolicy
	// PendingEnrollment is the trainer's view of a not-yet-enrolled
	// sender, handed to the Confirm/Decide callbacks.
	PendingEnrollment = engine.PendingEnrollment
	// EnrollDecision is the three-way verdict of TrainerOptions.Decide
	// (DecideApprove, DecideReject, DecideDefer).
	EnrollDecision = engine.EnrollDecision
	// DBSetter is the hot-swap half of a single-parameter engine;
	// Engine and ShardedEngine both implement it, and Trainer.Bind
	// takes either.
	DBSetter = engine.DBSetter
	// EnsembleDBSetter is the hot-swap half of an ensemble engine;
	// Engine and ShardedEngine both implement it.
	EnsembleDBSetter = engine.EnsembleDBSetter
)

// Enrollment policies for TrainerOptions.
const (
	// EnrollAuto promotes every sender that completes the horizon.
	EnrollAuto = engine.EnrollAuto
	// EnrollConfirm asks TrainerOptions.Decide (or Confirm) first.
	EnrollConfirm = engine.EnrollConfirm
)

// Decisions for TrainerOptions.Decide under EnrollConfirm.
const (
	// DecideDefer keeps the sender pending; it is offered again at its
	// next candidate window.
	DecideDefer = engine.DecideDefer
	// DecideApprove promotes the sender into the references now.
	DecideApprove = engine.DecideApprove
	// DecideReject permanently denies the sender.
	DecideReject = engine.DecideReject
)

// NewTrainer creates a cold-start trainer: references begin empty and
// are populated entirely by enrollment. Attach it with
// EngineOptions.Trainer or ShardedOptions.Trainer (the engine's db
// argument must then be nil).
func NewTrainer(cfg Config, m Measure, opts TrainerOptions) *Trainer {
	return engine.NewTrainer(cfg, m, opts)
}

// NewTrainerFrom creates a trainer seeded with an existing database
// (deep-copied): known references keep matching while unknown senders
// enroll around them.
func NewTrainerFrom(seed *Database, opts TrainerOptions) *Trainer {
	return engine.NewTrainerFrom(seed, opts)
}

// NewEnsembleTrainer creates a cold-start trainer for an ensemble
// engine: member signatures are accumulated together and enrolled
// atomically, so a live-enrolled ensemble never holds a
// partially-known device.
func NewEnsembleTrainer(cfgs []Config, m Measure, opts TrainerOptions) (*Trainer, error) {
	return engine.NewEnsembleTrainer(cfgs, m, opts)
}

// NewEnsembleTrainerFrom creates an ensemble trainer seeded with an
// existing ensemble (deep-copied). Seeds holding partially-enrolled
// devices are refused — they can never match and enrollment cannot
// repair them.
func NewEnsembleTrainerFrom(seed *Ensemble, opts TrainerOptions) (*Trainer, error) {
	return engine.NewEnsembleTrainerFrom(seed, opts)
}

// --- sharded engine ----------------------------------------------------------

// Sharded engine types: the concurrent, shard-per-core form of the
// streaming pipeline (see the doc.go "Scaling" section).
type (
	// ShardedEngine hash-partitions records by sender across per-core
	// shards; the merged event stream is identical to Engine's.
	ShardedEngine = engine.Sharded
	// ShardedOptions parameterises NewShardedEngine.
	ShardedOptions = engine.ShardedOptions
	// Backpressure selects the full-queue policy (BackpressureBlock or
	// BackpressureDrop).
	Backpressure = engine.Backpressure
	// SenderLimits bounds per-window sender state (max senders cap +
	// idle eviction), for both Engine and ShardedEngine.
	SenderLimits = core.SenderLimits
	// SenderTable is the bounded per-sender signature accumulator the
	// engines are built on.
	SenderTable = core.SenderTable
)

// Backpressure policies for ShardedOptions.
const (
	// BackpressureBlock makes Push wait for queue space (lossless).
	BackpressureBlock = engine.Block
	// BackpressureDrop discards observations when a shard queue is full,
	// counting them in Stats.DroppedFrames (bounded ingest latency).
	BackpressureDrop = engine.Drop
)

// NewShardedEngine creates a sharded streaming engine (see
// ShardedOptions; Shards 0 selects GOMAXPROCS).
func NewShardedEngine(cfg Config, db *CompiledDB, opts ShardedOptions) (*ShardedEngine, error) {
	return engine.NewSharded(cfg, db, opts)
}

// NewShardedEnsembleEngine creates a sharded multi-parameter engine:
// the router computes every member's parameter value against the
// global inter-arrival context, so the merged fused event stream is
// identical to NewEnsembleEngine's at every shard count.
func NewShardedEnsembleEngine(cfgs []Config, edb *CompiledEnsemble, opts ShardedOptions) (*ShardedEngine, error) {
	return engine.NewShardedEnsemble(cfgs, edb, opts)
}

// --- capture I/O -------------------------------------------------------------

// Capture link types accepted by the pcap I/O functions — the two
// monitor-metadata formats the paper's method reads (§III).
const (
	LinkTypeRadiotap = pcap.LinkTypeRadiotap
	LinkTypePrism    = pcap.LinkTypePrism
)

// ReadPcap parses a radiotap or AVS/Prism pcap stream into a trace.
func ReadPcap(r io.Reader) (*Trace, error) { return capture.ReadPcap(r) }

// PcapStream yields a capture's records one at a time without
// materialising the trace — the engine's input path.
type PcapStream = capture.StreamReader

// ReadPcapStream opens a radiotap or AVS/Prism pcap stream for
// record-at-a-time reading.
func ReadPcapStream(r io.Reader) (*PcapStream, error) { return capture.NewStreamReader(r) }

// Multi-source ingestion: several monitors (pcap files, FIFOs, stdin
// feeds) merged into one record stream.
type (
	// MultiStream merges several record sources into one stream.
	MultiStream = capture.MultiStream
	// RecordSource is any record-at-a-time input (PcapStream implements it).
	RecordSource = capture.RecordSource
	// MergeMode selects the interleaving (MergeByTime or MergeArrival).
	MergeMode = capture.MergeMode
)

// Merge modes for NewMultiStream.
const (
	// MergeByTime interleaves records in ascending timestamp order —
	// deterministic for file inputs.
	MergeByTime = capture.MergeByTime
	// MergeArrival interleaves records as sources produce them — for
	// unsynchronised live feeds.
	MergeArrival = capture.MergeArrival
)

// NewMultiStream merges the given sources; rebase shifts each source's
// clock so its first record lands at offset zero.
func NewMultiStream(mode MergeMode, rebase bool, sources ...RecordSource) *MultiStream {
	return capture.NewMultiStream(mode, rebase, sources...)
}

// --- fault tolerance ---------------------------------------------------------

// Fault-tolerance types: per-source supervision for MultiStream and
// engine health reporting (see the doc.go "Fault tolerance" section).
type (
	// MultiOptions parameterises NewMultiStreamOpts (merge mode, rebase,
	// supervision).
	MultiOptions = capture.MultiOptions
	// Supervisor configures per-source reopen/retry/backoff and the
	// decode-error circuit breaker; the zero value supervises nothing.
	Supervisor = capture.Supervisor
	// SourceEvent is a supervision event (SourceDown or SourceUp).
	SourceEvent = capture.SourceEvent
	// SourceDown reports a source failure — transient (about to retry)
	// or permanent (attempts exhausted).
	SourceDown = capture.SourceDown
	// SourceUp reports a successful source reopen.
	SourceUp = capture.SourceUp
	// SourceStats is one source's supervision counters.
	SourceStats = capture.SourceStats
	// EngineHealth is a snapshot of an engine's supervision state:
	// recovered panics, stalled shards, queue depths.
	EngineHealth = engine.Health
	// EngineHooks are the engines' fault-injection/test points.
	EngineHooks = engine.Hooks
	// ComponentPanicked is the health event for a recovered panic.
	ComponentPanicked = engine.ComponentPanicked
	// ShardStalled is the watchdog's health event for a wedged shard.
	ShardStalled = engine.ShardStalled
	// ShardResumed is the watchdog's all-clear for a stalled shard.
	ShardResumed = engine.ShardResumed
)

// ErrBreakerTripped reports a source failed by its decode-error-rate
// circuit breaker (see Supervisor.BreakerWindow).
var ErrBreakerTripped = capture.ErrBreakerTripped

// NewMultiStreamOpts merges the given sources with full options,
// including per-source supervision.
func NewMultiStreamOpts(opts MultiOptions, sources ...RecordSource) *MultiStream {
	return capture.NewMultiStreamOpts(opts, sources...)
}

// WithCloser attaches a Closer to a RecordSource so MultiStream.Close
// (and supervised reopens) can unblock a source wedged in a blocking
// read — a PcapStream over a FIFO, closed via the underlying file.
func WithCloser(src RecordSource, c io.Closer) RecordSource {
	return capture.WithCloser(src, c)
}

// WritePcap serialises a trace as a standard radiotap pcap stream.
func WritePcap(w io.Writer, tr *Trace) error { return capture.WritePcap(w, tr) }

// WritePcapLinkType serialises a trace with the chosen capture-header
// format (LinkTypeRadiotap or LinkTypePrism).
func WritePcapLinkType(w io.Writer, tr *Trace, linkType uint32) error {
	return capture.WritePcapLinkType(w, tr, linkType)
}

// --- evaluation --------------------------------------------------------------

// Evaluation types.
type (
	// EvalSpec parameterises one evaluation run.
	EvalSpec = eval.Spec
	// EvalResult carries the similarity curve, AUC and identification
	// ratios of one run.
	EvalResult = eval.Result
	// CurvePoint is one threshold sample of a similarity curve.
	CurvePoint = eval.CurvePoint
	// TraceInfo is a Table-I style trace summary.
	TraceInfo = eval.TraceInfo
)

// Evaluate runs the paper's similarity and identification tests on a trace.
func Evaluate(tr *Trace, spec EvalSpec) (*EvalResult, error) { return eval.Run(tr, spec) }

// DescribeTrace computes a trace's Table-I row.
func DescribeTrace(tr *Trace, refDur time.Duration, cfg Config) TraceInfo {
	return eval.DescribeTrace(tr, refDur, cfg)
}

// --- trace synthesis ---------------------------------------------------------

// ScenarioParams configures synthetic office/conference traces.
type ScenarioParams = scenario.Params

// SimStats summarises a simulation run.
type SimStats = sim.Stats

// GenerateOffice synthesises an office-like trace (stable placements,
// WPA, diverse cards and services).
func GenerateOffice(name string, seed uint64, duration time.Duration, stations int) (*Trace, error) {
	tr, _, err := scenario.Build(scenario.Office(name, seed, duration, stations))
	return tr, err
}

// GenerateConference synthesises a conference-like trace (open network,
// mobility, churn, homogeneous fleet).
func GenerateConference(name string, seed uint64, duration time.Duration, stations int) (*Trace, error) {
	tr, _, err := scenario.Build(scenario.Conference(name, seed, duration, stations))
	return tr, err
}

// GenerateScenario synthesises a trace from explicit parameters.
func GenerateScenario(p ScenarioParams) (*Trace, SimStats, error) { return scenario.Build(p) }
