package core

import (
	"sync/atomic"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
)

// WindowResult is one closed detection window as seen by a streaming
// consumer: the candidates that cleared the minimum-observation rule
// (ascending address order, as CandidatesIn emits them) plus the
// senders that were observed but dropped below the minimum.
//
// The result and everything it references is handed off to the
// consumer: the accumulator keeps no alias after emitting it, so
// signatures and slices may be retained or mutated freely.
type WindowResult struct {
	// Index is the window ordinal among non-empty windows, exactly as
	// CandidatesIn numbers them.
	Index int
	// Start and End bound the window in trace time [Start, End) µs.
	// For a non-positive window size the whole stream is one window
	// and End is the last record's timestamp plus one.
	Start, End int64
	// Frames is the number of records scanned in the window, whether
	// or not they were attributed to a sender.
	Frames int
	// Candidates are the senders that cleared MinObservations
	// (single-parameter pipelines; empty in ensemble mode).
	Candidates []Candidate
	// Multi are the multi-parameter candidates of an ensemble pipeline:
	// senders that cleared every member's minimum-observation rule, one
	// signature per member (empty in single-parameter mode).
	Multi []MultiCandidate
	// Dropped are the senders that did not clear the rule — for an
	// ensemble, senders that cleared some members but not all are
	// dropped too, reported with their best member's observation count.
	Dropped []DroppedSender
	// EvictedSilently counts evictions beyond the per-window record
	// cap: they are tallied (here and in the engines' counters) but
	// carry no individual Dropped entry, so eviction bookkeeping stays
	// O(SenderLimits.MaxSenders) under unbounded MAC churn.
	EvictedSilently uint64
}

// DroppedSender is a sender observed in a window that was never
// matched: its signature stayed below the minimum-observation rule, or
// it was evicted by the table's SenderLimits before the window closed.
type DroppedSender struct {
	Addr         dot11.Addr
	Observations uint64
	// Evicted distinguishes a bounded-state eviction (cap or idle) from
	// the ordinary below-minimum drop.
	Evicted bool
}

// WindowMeta is the bookkeeping of one closed detection window, as
// produced by WindowClock.
type WindowMeta struct {
	// Index is the window ordinal among non-empty windows.
	Index int
	// Start and End bound the window in trace time [Start, End) µs.
	Start, End int64
	// Frames is the number of records scanned in the window.
	Frames int
}

// WindowClock is the detection-window bookkeeping shared by
// WindowAccumulator and the sharded engine's router — one
// implementation of the grid anchoring, non-empty-window numbering,
// per-window frame counting and inter-arrival context reset, so the
// serial and sharded paths cannot drift apart. The grid is anchored at
// the first record; a non-positive window size keeps the whole stream
// as one window (closed only by CloseOpen).
type WindowClock struct {
	w       int64 // window size in µs; <= 0 means one window for the stream
	started bool  // anchor captured
	anchor  int64 // T of the first record: the window-grid origin
	open    bool  // a window is currently accumulating
	bucket  int64 // current window ordinal relative to the anchor
	index   int   // index among non-empty windows
	prevT   int64 // previous record's T; -1 at each window start
	frames  int
}

// NewWindowClock creates a clock for the given window size.
func NewWindowClock(window time.Duration) WindowClock {
	return WindowClock{w: window.Microseconds(), index: -1, prevT: -1}
}

// Advance accounts one record at time t: if t falls outside the open
// window, that window closes — its metadata is returned with
// closed=true — before the record is counted to the freshly opened
// one. Call Mark(t) after processing the record.
func (c *WindowClock) Advance(t int64) (closed bool, meta WindowMeta) {
	if !c.started {
		c.started = true
		c.anchor = t
	}
	var b int64
	if c.w > 0 {
		b = (t - c.anchor) / c.w
	}
	if !c.open || b != c.bucket {
		if c.open {
			closed, meta = true, c.meta()
		}
		c.open = true
		c.bucket = b
		c.index++
		c.prevT = -1 // each window starts a fresh inter-arrival context
		c.frames = 0
	}
	c.frames++
	return closed, meta
}

// CloseOpen closes the currently open window early (the Flush path);
// the next Advance opens a fresh window on the same grid.
func (c *WindowClock) CloseOpen() (closed bool, meta WindowMeta) {
	if !c.open {
		return false, WindowMeta{}
	}
	meta = c.meta()
	c.open = false
	return true, meta
}

// PrevT returns the previous record's end of reception — the
// inter-arrival context — or -1 at a window start.
func (c *WindowClock) PrevT() int64 { return c.prevT }

// Mark records t as the new inter-arrival context.
func (c *WindowClock) Mark(t int64) { c.prevT = t }

// meta captures the open window's bookkeeping.
func (c *WindowClock) meta() WindowMeta {
	m := WindowMeta{Index: c.index, Frames: c.frames}
	if c.w > 0 {
		m.Start = c.anchor + c.bucket*c.w
		m.End = m.Start + c.w
	} else {
		m.Start = c.anchor
		m.End = c.prevT + 1
	}
	return m
}

// WindowAccumulator is the incremental form of CandidatesIn: records
// are pushed one at a time, per-sender signatures accumulate in the
// current detection window, and each window is emitted to the callback
// as soon as a record crosses its boundary (or Flush is called). The
// window grid is anchored at the first pushed record, windows are
// numbered among non-empty windows, and the inter-arrival context
// resets at each boundary — byte-for-byte the semantics of the batch
// path, which is itself implemented on top of this type.
//
// Push and Flush must be called from a single goroutine; LiveSenders
// and WindowsClosed are safe to read from any goroutine.
type WindowAccumulator struct {
	cfg     Config
	cfgs    []Config // ensemble members; nil in single-parameter mode
	clock   WindowClock
	emit    func(*WindowResult)
	table   *SenderTable
	cluster *Clusterer // nil = no MAC-randomization clustering

	// Reusable per-record member value buffer (ensemble mode only), so
	// the multi-parameter push path allocates nothing per frame.
	vals []float64

	windows atomic.Int64 // windows emitted so far
}

// NewWindowAccumulator creates an accumulator emitting each closed
// window to emit (which may be nil to discard results — useful only
// for measurement). The config's zero fields are materialised exactly
// as the batch extraction paths do.
func NewWindowAccumulator(window time.Duration, cfg Config, emit func(*WindowResult)) *WindowAccumulator {
	a := &WindowAccumulator{
		clock: NewWindowClock(window),
		emit:  emit,
	}
	a.table = NewSenderTable(cfg, SenderLimits{})
	a.cfg = a.table.Config()
	return a
}

// NewEnsembleAccumulator creates a multi-parameter accumulator: one
// window clock and one shared inter-arrival context drive the
// extraction of every member parameter in a single pass over the
// record stream, so each sender accumulates one signature per member
// per window. Closed windows emit their fully-qualified senders as
// WindowResult.Multi (all members' minimum-observation rules cleared);
// senders clearing only some members surface in WindowResult.Dropped
// instead of silently vanishing. Member configurations must carry
// distinct parameters.
func NewEnsembleAccumulator(window time.Duration, cfgs []Config, emit func(*WindowResult)) (*WindowAccumulator, error) {
	table, err := NewEnsembleSenderTable(cfgs, SenderLimits{})
	if err != nil {
		return nil, err
	}
	a := &WindowAccumulator{
		clock: NewWindowClock(window),
		emit:  emit,
		table: table,
		vals:  make([]float64, len(cfgs)),
	}
	a.cfgs = table.Configs()
	a.cfg = a.cfgs[0]
	return a, nil
}

// Config returns the extraction configuration with defaults materialised
// (the first member's, in ensemble mode).
func (a *WindowAccumulator) Config() Config { return a.cfg }

// Configs returns every member configuration with defaults
// materialised, or nil for a single-parameter accumulator.
func (a *WindowAccumulator) Configs() []Config {
	if a.cfgs == nil {
		return nil
	}
	out := make([]Config, len(a.cfgs))
	copy(out, a.cfgs)
	return out
}

// SetClusterer routes attribution through a MAC-randomization
// clusterer: every attributable record's sender is resolved to its
// clustered device address before sender-table admission (nil disables,
// the default — a single branch on the per-frame path). Call before the
// first Push.
func (a *WindowAccumulator) SetClusterer(c *Clusterer) { a.cluster = c }

// SetLimits bounds the accumulator's per-window sender state (see
// SenderLimits). With the zero value — the default — state is unbounded
// and output is byte-for-byte the batch pipeline's; with bounds in
// place, evicted senders surface in WindowResult.Dropped with Evicted
// set. Call before the first Push.
func (a *WindowAccumulator) SetLimits(l SenderLimits) { a.table.SetLimits(l) }

// LiveSenders returns the number of distinct senders with observations
// in the currently open window.
func (a *WindowAccumulator) LiveSenders() int { return a.table.LiveSenders() }

// EvictedSenders returns the number of senders evicted under the
// accumulator's SenderLimits so far, across all windows.
func (a *WindowAccumulator) EvictedSenders() uint64 { return a.table.EvictedTotal() }

// WindowsClosed returns the number of windows emitted so far.
func (a *WindowAccumulator) WindowsClosed() int { return int(a.windows.Load()) }

// Push scans one record. The record is not retained. Crossing a window
// boundary closes the previous window (emitting its WindowResult)
// before the record is accounted to the new one.
//
//fp:hotpath test=TestEnginePushZeroAllocs
func (a *WindowAccumulator) Push(rec *capture.Record) {
	if closed, meta := a.clock.Advance(rec.T); closed {
		a.close(meta)
	}
	// A one-member ensemble takes the single-parameter path: its one
	// value lands in member 0's signature either way, and only Drain's
	// result shape tells the two apart.
	if len(a.cfgs) > 1 {
		a.pushMulti(rec)
	} else if !rec.Sender.IsZero() && (rec.FCSOK || a.cfg.KeepBadFCS) {
		sender := rec.Sender
		if a.cluster != nil {
			sender = a.cluster.Resolve(rec)
		}
		if v, ok := a.cfg.Param.Value(rec, a.clock.PrevT()); ok {
			a.table.Observe(sender, rec.Class, v, rec.T)
		}
	}
	a.clock.Mark(rec.T)
}

// pushMulti applies the ensemble attribution: one pass computes every
// member's parameter value against the shared inter-arrival context; a
// record reaches the sender table when at least one member's value is
// defined, so sender recency (and with it bounded-state eviction) stays
// a deterministic function of the attributed record stream. MemberValues
// is the same computation, exported for the sharded engine's router.
//
//fp:hotpath test=TestEnsemblePushZeroAllocs
func (a *WindowAccumulator) pushMulti(rec *capture.Record) {
	if rec.Sender.IsZero() {
		return
	}
	sender := rec.Sender
	if a.cluster != nil {
		sender = a.cluster.Resolve(rec)
	}
	if valid := MemberValues(a.cfgs, rec, a.clock.PrevT(), a.vals); valid != 0 {
		a.table.ObserveN(sender, rec.Class, a.vals[0], a.vals[1:], valid, rec.T)
	}
}

// MemberValues computes every member's parameter value for one
// attributable record against the shared inter-arrival context prevT,
// writing member m's value into vals[m] (len(cfgs) entries) and
// returning the validity mask: bit m is set when member m's value is
// defined, so a zero mask means no member observes the record. A member
// whose configuration keeps bad-FCS frames sees them; the others skip
// them — per-member attribution, shared context, exactly as per-member
// extraction over the same records behaves.
//
//fp:hotpath test=TestEnsemblePushZeroAllocs
func MemberValues(cfgs []Config, rec *capture.Record, prevT int64, vals []float64) (valid uint8) {
	for m := range cfgs {
		if !rec.FCSOK && !cfgs[m].KeepBadFCS {
			continue
		}
		if v, ok := cfgs[m].Param.Value(rec, prevT); ok {
			vals[m] = v
			valid |= 1 << m
		}
	}
	return valid
}

// Flush closes the currently open window, if any. The next pushed
// record opens a fresh window on the same grid; flushing at stream end
// (the batch paths' usage) leaves streaming output identical to
// windowing the materialised trace.
func (a *WindowAccumulator) Flush() {
	if closed, meta := a.clock.CloseOpen(); closed {
		a.close(meta)
	}
}

// close emits the accumulated window.
//
//fp:coldpath runs once per closed window; drain and emit amortise across the window's frames
func (a *WindowAccumulator) close(meta WindowMeta) {
	res := &WindowResult{Index: meta.Index, Start: meta.Start, End: meta.End, Frames: meta.Frames}
	a.table.Drain(res)
	a.windows.Add(1)
	if a.emit != nil {
		a.emit(res)
	}
}
