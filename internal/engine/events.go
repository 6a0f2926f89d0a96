package engine

import (
	"sync/atomic"

	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
)

// Event is the sealed interface over the engine's typed events. Events
// are delivered synchronously, on the pushing goroutine, in a fixed
// per-window order: one CandidateMatched or UnknownDevice per candidate
// (ascending address), then one CandidateDropped per below-minimum
// sender (ascending address), then the WindowClosed summary. Everything
// an event references is owned by the receiver — the engine keeps no
// alias, so events may be retained, sent across channels or mutated.
type Event interface{ event() }

// WindowClosed summarises one completed detection window. It is the
// last event of its window.
type WindowClosed struct {
	// Window is the window index among non-empty windows.
	Window int
	// Start and End bound the window in trace time [Start, End) µs.
	Start, End int64
	// Frames is the number of records scanned in the window.
	Frames int
	// Senders counts distinct senders with attributed observations.
	Senders int
	// Candidates counts senders that cleared the minimum-observation
	// rule (Candidates = Matched + Unknown).
	Candidates int
	// Matched and Unknown partition the candidates by the acceptance
	// threshold; Dropped counts the below-minimum and evicted senders.
	// Under extreme MAC churn, per-sender CandidateDropped events are
	// capped per window (the eviction record cap), so Dropped may
	// exceed the number of CandidateDropped events delivered.
	Matched, Unknown, Dropped int
}

// CandidateMatched reports a candidate whose best reference similarity
// reached the acceptance threshold — the identification test's verdict
// for one (device, window) instance.
type CandidateMatched struct {
	Window int
	Addr   dot11.Addr
	// Sig is the candidate's window signature on an engine built for
	// one parameter (New, NewSharded); nil on an ensemble engine.
	Sig *core.Signature
	// Sigs are the candidate's per-member window signatures on an
	// ensemble engine (NewEnsemble, NewShardedEnsemble — one member
	// included), aligned with the ensemble's Params; nil when Sig is
	// set. Every engine matches an ensemble, a single parameter being
	// the one-member case; the two fields are the two shapes of its
	// member signatures.
	Sigs []*core.Signature
	// Scores is the top k of the similarity vector (Algorithm 1), ranked
	// by score with ties toward the earlier reference (k is the engine's
	// TopK, DefaultTopK unless set). With TopK = FullVector it is the
	// whole vector in the reference database's insertion order. On an
	// ensemble engine the vector is the fused one — the mean of the
	// member similarities — over the fully-known reference set.
	Scores []core.Score
	// ParamScores are the per-member similarity vectors behind a fused
	// Scores, aligned with the ensemble's Params; each member's vector
	// runs over that member's own reference order. Only carried with
	// TopK = FullVector on an ensemble engine; nil otherwise (a
	// single-parameter engine's one member vector is Scores itself).
	// On a one-member ensemble ParamScores[0] is the Scores slice.
	ParamScores [][]core.Score
	// Best is the arg-max entry of the similarity vector: Scores[0] when
	// bounded.
	Best core.Score
}

// Observations returns the candidate's observation count: the single
// signature's on a single-parameter engine, the maximum across member
// signatures on an ensemble engine (members differ only through
// per-parameter value validity).
func (ev CandidateMatched) Observations() uint64 { return eventObs(ev.Sig, ev.Sigs) }

// UnknownDevice reports a candidate that cleared the minimum-observation
// rule but matched no reference: either its best similarity stayed
// below the acceptance threshold, or no reference database is installed
// (Scores nil, HasBest false).
type UnknownDevice struct {
	Window int
	Addr   dot11.Addr
	// Sig and Sigs carry the window signature(s), exactly as on
	// CandidateMatched (Sig on a single-parameter engine, Sigs on an
	// ensemble one).
	Sig  *core.Signature
	Sigs []*core.Signature
	// Scores and ParamScores are the top k (or, with FullVector, the
	// whole vectors), exactly as on CandidateMatched.
	Scores      []core.Score
	ParamScores [][]core.Score
	// Best is the arg-max entry of the similarity vector when HasBest
	// is true.
	Best    core.Score
	HasBest bool
}

// Observations returns the candidate's observation count (see
// CandidateMatched.Observations).
func (ev UnknownDevice) Observations() uint64 { return eventObs(ev.Sig, ev.Sigs) }

// eventObs implements the verdict events' Observations convention.
func eventObs(sig *core.Signature, sigs []*core.Signature) uint64 {
	if sig != nil {
		return sig.Observations()
	}
	return maxSigObs(sigs)
}

// CandidateDropped reports a sender observed in the window that was
// never matched: its signature stayed below the minimum-observation
// rule (§V-C), or — when sender bounds are configured — it was evicted
// before the window closed.
type CandidateDropped struct {
	Window       int
	Addr         dot11.Addr
	Observations uint64
	// Minimum is the rule's threshold, for self-contained reporting.
	Minimum int
	// Evicted marks a bounded-state eviction (SenderLimits cap or idle
	// timeout) rather than an ordinary below-minimum drop.
	Evicted bool
}

// EnrollmentProgress reports a pending sender advancing toward the
// enrollment horizon — one event per (pending sender, window) while a
// Trainer is attached. Trainer events follow their window's
// WindowClosed summary, in ascending address order.
type EnrollmentProgress struct {
	Window int
	Addr   dot11.Addr
	// Windows counts the detection windows the sender has been a
	// candidate in so far, against the trainer's Horizon.
	Windows, Horizon int
	// Observations counts the accumulated observations, against the
	// trainer's MinObservations bar (0 = no extra bar).
	Observations, Required uint64
}

// DeviceEnrolled reports a sender promoted into the reference database
// by the online trainer.
type DeviceEnrolled struct {
	Window int
	Addr   dot11.Addr
	// Windows and Observations describe the accumulated training
	// signature that became the reference.
	Windows      int
	Observations uint64
	// Refs is the reference count after this enrollment.
	Refs int
}

// DBSwapped reports a reference-database hot-swap pushed to the engine
// by the online trainer — exactly one per promotion batch (a window
// whose enrollments or reference updates changed the database).
type DBSwapped struct {
	Window int
	// Version numbers the swaps monotonically from 1.
	Version uint64
	// Refs is the reference count after the swap; Enrolled and Updated
	// the newly promoted and refreshed references in this batch.
	Refs, Enrolled, Updated int
}

func (WindowClosed) event()       {}
func (CandidateMatched) event()   {}
func (UnknownDevice) event()      {}
func (CandidateDropped) event()   {}
func (EnrollmentProgress) event() {}
func (DeviceEnrolled) event()     {}
func (DBSwapped) event()          {}

// emitVerdict delivers the per-candidate verdict event — the single
// event-construction path shared by the serial and sharded engines, so
// their streams cannot drift apart — and reports whether the candidate
// matched. A nil sink still computes the verdict, keeping counters
// exact. single selects the single-parameter event shape: the one
// member's signature in Sig, no Sigs and no ParamScores (its fused
// vector is the member's own).
func emitVerdict(sink Sink, threshold float64, single bool, c *core.MultiCandidate, fused []core.Score, perParam [][]core.Score) bool {
	best := core.Score{Sim: -1}
	for _, sc := range fused {
		if sc.Sim > best.Sim {
			best = sc
		}
	}
	matched := len(fused) > 0 && best.Sim >= threshold
	if sink == nil {
		return matched
	}
	var sig *core.Signature
	sigs := c.Sigs
	if single {
		sig, sigs, perParam = sigs[0], nil, nil
	}
	if matched {
		sink.HandleEvent(CandidateMatched{
			Window: c.Window, Addr: dot11.Addr(c.Addr), Sig: sig, Sigs: sigs,
			Scores: fused, ParamScores: perParam, Best: best,
		})
		return true
	}
	ev := UnknownDevice{Window: c.Window, Addr: dot11.Addr(c.Addr), Sig: sig, Sigs: sigs, Scores: fused, ParamScores: perParam}
	if len(fused) > 0 {
		ev.Best, ev.HasBest = best, true
	}
	sink.HandleEvent(ev)
	return false
}

// Sink receives engine events. HandleEvent is called synchronously on
// the pushing goroutine; a slow sink backpressures the stream, which is
// the intended flow control.
type Sink interface {
	HandleEvent(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// HandleEvent implements Sink.
func (f SinkFunc) HandleEvent(ev Event) { f(ev) }

// ChannelSink forwards events into a channel, for consumers that want
// to select on the stream instead of registering a callback.
//
// The full-buffer policy is explicit and fixed at construction:
//
//   - Blocking (NewChannelSink, the default): a send into a full
//     channel waits, backpressuring the engine exactly like any other
//     slow Sink — lossless, end-to-end flow control. A consumer that
//     stops draining stalls the stream at the next window boundary.
//   - Dropping (NewDroppingChannelSink): a send into a full channel
//     discards the event and counts it in Dropped — the engine never
//     stalls on this sink, at the cost of a gappy (but counted) stream.
//     This is the building block for fanning events out to consumers
//     that must not backpressure the pipeline, e.g. the HTTP server's
//     SSE feed.
//
// Either way the channel is never silently lossy: events are delivered
// in order, and every event not delivered is visible in Dropped().
type ChannelSink struct {
	// C carries the events. The engine never closes it; the owner of
	// the stream calls Close after Engine.Close has returned.
	C chan Event

	dropOnFull bool
	dropped    atomic.Uint64
}

// NewChannelSink creates a blocking sink buffering up to buffer
// events: a full buffer backpressures the engine (lossless).
func NewChannelSink(buffer int) *ChannelSink {
	return &ChannelSink{C: make(chan Event, buffer)}
}

// NewDroppingChannelSink creates a non-blocking sink buffering up to
// buffer events: a full buffer drops the event and counts it in
// Dropped instead of stalling the engine.
func NewDroppingChannelSink(buffer int) *ChannelSink {
	return &ChannelSink{C: make(chan Event, buffer), dropOnFull: true}
}

// HandleEvent implements Sink under the sink's full-buffer policy.
//
//fp:mayblock lossless mode blocks on a full C by documented contract; dropOnFull is the non-blocking policy
func (s *ChannelSink) HandleEvent(ev Event) {
	if s.dropOnFull {
		select {
		case s.C <- ev:
		default:
			s.dropped.Add(1)
		}
		return
	}
	s.C <- ev
}

// Dropped returns the number of events discarded by a dropping sink
// (always 0 for a blocking one). Safe from any goroutine.
func (s *ChannelSink) Dropped() uint64 { return s.dropped.Load() }

// Close closes the event channel, releasing range loops over C.
func (s *ChannelSink) Close() { close(s.C) }
