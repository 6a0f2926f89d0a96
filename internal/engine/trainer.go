package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
)

// Trainer is the online-enrollment subsystem: it closes the loop from
// candidates observed in the live stream back into the reference
// database, so a cold-started monitor populates its own references
// without ever materialising a training trace.
//
// The trainer consumes closed detection windows — inline via
// Options.Trainer / ShardedOptions.Trainer (the precise mode: window k's
// promotions are visible to window k+1's matching on both engines), or
// from an engine's event stream via Tap — and accumulates each unknown
// sender's window signatures, one per member parameter, over the
// enrollment horizon. When a sender completes the horizon, the
// enrollment policy (auto, confirm-callback, deny-list) decides its
// fate; completed signatures are promoted into the trainer's private
// copy-on-write core.Ensemble — all members atomically (Ensemble.Add),
// so a live-enrolled ensemble can never hold a partially-known device —
// compiled, and hot-swapped into the bound engine. Each promotion batch
// emits DeviceEnrolled events (one per device), EnrollmentProgress for
// senders still accumulating, and exactly one DBSwapped.
//
// Like the engines, every trainer runs one path: a single-parameter
// trainer (NewTrainer, NewTrainerFrom) is an ensemble of one, and
// differs only in the shape of its accessors (Database and Compiled
// instead of Ensemble and CompiledEnsemble) and of the signatures it
// hands the Confirm and Decide callbacks (Sig instead of Sigs).
//
// Accumulation reuses the window signatures produced by
// core.WindowAccumulator / core.SenderTable, so extraction stays a
// single code path: a database enrolled live over the first K windows of
// a stream (Horizon 1, Update true) is bit-identical — same references,
// same MatchAll scores — to one batch-trained per window on the same
// prefix (TestTrainerLiveEqualsBatch).
//
// A Trainer serves one engine at a time. Its mutating entry points run
// on the engine's event-delivery goroutine; Stats, Database and
// Compiled are safe from any goroutine.
type Trainer struct {
	mu   sync.Mutex
	cfgs []core.Config
	// single marks a trainer built by NewTrainer/NewTrainerFrom: read
	// only by the shape accessors and the callbacks' payload.
	single       bool
	opts         TrainerOptions
	ens          *core.Ensemble // private working copy
	pending      map[dot11.Addr]*pendingEnroll
	denied       map[dot11.Addr]bool
	evictScratch []pendingEvictCand
	target       installer // the bound engine
	stats        TrainerStats
}

// DBSetter is the hot-swap half of an engine as a single-parameter
// caller sees it; *Engine and *Sharded both implement it, and Bind
// takes either.
type DBSetter interface {
	SetDB(*core.CompiledDB) error
}

// installer is the swap the trainer drives: the engines' shape-checked
// reference install, whichever shape they answer in.
type installer interface {
	install(*core.CompiledEnsemble) error
}

// EnrollPolicy selects what the trainer does with a sender that has
// completed its enrollment horizon.
type EnrollPolicy uint8

const (
	// EnrollAuto promotes every completed sender into the references.
	EnrollAuto EnrollPolicy = iota
	// EnrollConfirm asks TrainerOptions.Decide (or the boolean Confirm)
	// before promoting. A rejected sender is remembered and never
	// offered again; a deferred one stays pending. With neither callback
	// set nothing is ever promoted.
	EnrollConfirm
)

// EnrollDecision is the three-way verdict of TrainerOptions.Decide on a
// sender that completed its enrollment horizon.
type EnrollDecision uint8

const (
	// DecideDefer keeps the sender pending: it continues accumulating
	// and is offered again at its next candidate window. This is the
	// natural return for an out-of-band approval flow (e.g. an operator
	// confirming over the HTTP API) that has not answered yet.
	DecideDefer EnrollDecision = iota
	// DecideApprove promotes the sender into the references now.
	DecideApprove
	// DecideReject permanently denies the sender: dropped from pending,
	// never offered again (same memory as the deny list).
	DecideReject
)

// PendingEnrollment is the trainer's view of one not-yet-enrolled
// sender, handed to the Confirm callback.
type PendingEnrollment struct {
	Addr dot11.Addr
	// Windows is the number of detection windows the sender has been a
	// candidate in; Observations the observations accumulated across
	// them (the weakest member's count for an ensemble trainer — the
	// same count the MinObservations bar gates on).
	Windows      int
	Observations uint64
	// Sig is the accumulated training signature (single-parameter
	// trainers; an ensemble trainer hands Sigs instead). The callback
	// may inspect it but must not retain or mutate it — on approval it
	// becomes the reference.
	Sig *core.Signature
	// Sigs are the per-member training signatures of an ensemble
	// trainer, aligned with the ensemble's parameters (nil otherwise).
	Sigs []*core.Signature
}

// TrainerOptions parameterises a Trainer.
type TrainerOptions struct {
	// Horizon is the enrollment horizon in detection windows: a sender
	// must have been a candidate (cleared the per-window
	// minimum-observation rule) in at least this many windows before it
	// is promoted. Zero selects 1 — enroll at the first window.
	Horizon int
	// MinObservations additionally requires this many observations
	// accumulated across the horizon before promotion. Zero imposes no
	// bar beyond the per-window rule candidates already cleared. An
	// ensemble trainer applies the bar to every member — the weakest
	// member's count must clear it, so a fused reference is never
	// promoted on the strength of one parameter alone.
	MinObservations uint64
	// Policy selects auto-enrollment (default) or confirm-before-enroll.
	Policy EnrollPolicy
	// Confirm decides EnrollConfirm promotions. It is called
	// synchronously on the engine's event-delivery goroutine and must
	// not call back into the trainer or the engine. A false return is
	// remembered: the sender is dropped from pending and never offered
	// again.
	Confirm func(PendingEnrollment) bool
	// Decide is the three-way form of Confirm — approve, reject, or
	// defer (keep pending and ask again next window). When set it takes
	// precedence over Confirm. Same calling contract: synchronous on the
	// event-delivery goroutine, no re-entry into trainer or engine. A
	// deferred sender emits EnrollmentProgress for the window, so the
	// stream still accounts for it.
	Decide func(PendingEnrollment) EnrollDecision
	// Deny lists senders that must never be enrolled (nor merged into
	// existing references) — e.g. the monitor's own infrastructure.
	Deny []dot11.Addr
	// Update keeps enrolled references learning: every window an
	// already-enrolled sender appears as a candidate, its window
	// signature is merged into the reference and the refresh is included
	// in that window's swap. Off (the default), references freeze at
	// enrollment.
	Update bool
	// MaxPending bounds the not-yet-enrolled accumulation state: beyond
	// the cap, the pending sender not seen for the most windows (ties by
	// ascending address) is evicted — under MAC randomization the
	// pending set would otherwise grow with every address that ever
	// cleared one window. Zero is unbounded.
	MaxPending int
}

// TrainerStats is a point-in-time snapshot of a trainer's counters.
//
// The JSON field names are a stable API surface shared by the HTTP
// server and the /metrics encoder (TestSnapshotJSONStable pins them).
type TrainerStats struct {
	// Refs is the current reference count (fully-known devices, for an
	// ensemble trainer); Pending the senders still accumulating toward
	// the horizon.
	Refs    int `json:"refs"`
	Pending int `json:"pending"`
	// Enrolled counts promotions, Updated reference refreshes (Update
	// mode), Swaps the database promotions pushed to the engine (the
	// DBSwapped version number).
	Enrolled uint64 `json:"enrolled"`
	Updated  uint64 `json:"updated"`
	Swaps    uint64 `json:"swaps"`
	// Denied counts candidate observations skipped for deny-listed or
	// confirm-rejected senders; Rejected the Confirm refusals;
	// EvictedPending the pending senders dropped by MaxPending.
	Denied         uint64 `json:"denied"`
	Rejected       uint64 `json:"rejected"`
	EvictedPending uint64 `json:"evicted_pending"`
}

// pendingEnroll is one sender accumulating toward the horizon: one
// signature per member (single-parameter trainers hold one).
type pendingEnroll struct {
	sigs       []*core.Signature
	windows    int
	lastWindow int
}

// minSigObs returns the smallest observation count across member
// signatures — the enrollment bar's view: every member must clear it.
func minSigObs(sigs []*core.Signature) uint64 {
	min := sigs[0].Observations()
	for _, sig := range sigs[1:] {
		if n := sig.Observations(); n < min {
			min = n
		}
	}
	return min
}

// maxSigObs returns the largest observation count across member
// signatures — the reporting convention shared with the engines' drop
// and verdict events.
func maxSigObs(sigs []*core.Signature) uint64 {
	var max uint64
	for _, sig := range sigs {
		if n := sig.Observations(); n > max {
			max = n
		}
	}
	return max
}

// NewTrainer creates a cold-start trainer: the reference set begins
// empty and is populated entirely by enrollment. The configuration and
// measure must match the engine the trainer is attached to.
func NewTrainer(cfg core.Config, measure core.Measure, opts TrainerOptions) *Trainer {
	ens, _ := core.NewEnsemble(measure, cfg) // one member always validates
	return newTrainer(ens, true, opts)
}

// NewTrainerFrom creates a trainer seeded with an existing database —
// warm start: known references keep matching while unknown senders
// enroll around them. The seed is deep-copied (copy-on-write); the
// caller's database is never touched.
func NewTrainerFrom(seed *core.Database, opts TrainerOptions) *Trainer {
	ens, _ := core.NewEnsembleFrom(seed.Clone()) // one member always validates
	return newTrainer(ens, true, opts)
}

// NewEnsembleTrainer creates a cold-start trainer for an ensemble
// engine: one member database per configuration, all beginning empty,
// populated by atomic multi-parameter enrollment. Member configurations
// must carry distinct parameters.
func NewEnsembleTrainer(cfgs []core.Config, measure core.Measure, opts TrainerOptions) (*Trainer, error) {
	ens, err := core.NewEnsemble(measure, cfgs...)
	if err != nil {
		return nil, err
	}
	return newTrainer(ens, false, opts), nil
}

// NewEnsembleTrainerFrom creates an ensemble trainer seeded with an
// existing ensemble — warm start, deep-copied. A seed holding
// partially-known devices (enrolled in some members but not all — see
// Ensemble.Partial) is refused: such devices can never match, and the
// trainer would never repair them either, because their addresses are
// already "known" to some member and so never re-enter enrollment.
func NewEnsembleTrainerFrom(seed *core.Ensemble, opts TrainerOptions) (*Trainer, error) {
	if partial := seed.Partial(); len(partial) > 0 {
		return nil, fmt.Errorf("engine: ensemble seed holds %d partially-enrolled devices (first %v) — not matchable and not repairable; re-train or drop them first",
			len(partial), partial[0])
	}
	return newTrainer(seed.Clone(), false, opts), nil
}

func newTrainer(ens *core.Ensemble, single bool, opts TrainerOptions) *Trainer {
	if opts.Horizon <= 0 {
		opts.Horizon = 1
	}
	t := &Trainer{
		cfgs:    ens.Configs(),
		single:  single,
		opts:    opts,
		ens:     ens,
		pending: make(map[dot11.Addr]*pendingEnroll),
		denied:  make(map[dot11.Addr]bool),
	}
	for _, addr := range opts.Deny {
		t.denied[addr] = true
	}
	return t
}

// Config returns the trainer's extraction configuration (the first
// member's, for an ensemble trainer).
func (t *Trainer) Config() core.Config { return t.cfgs[0] }

// Configs returns the member configurations of an ensemble trainer, or
// nil for a single-parameter one.
func (t *Trainer) Configs() []core.Config { return shapeConfigs(t.single, t.cfgs) }

// attach binds an inline trainer (Options.Trainer /
// ShardedOptions.Trainer) to the engine being built and returns the
// references the engine starts with: the trainer's, since it owns the
// reference set. A nil trainer returns refs unchanged.
func (t *Trainer) attach(target installer, cfgs []core.Config, refs *core.CompiledEnsemble) (*core.CompiledEnsemble, error) {
	if t == nil {
		return refs, nil
	}
	if refs != nil {
		return nil, fmt.Errorf("engine: both db and a Trainer set — the trainer owns the reference set (seed it with NewTrainerFrom or NewEnsembleTrainerFrom)")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cfgs) != len(cfgs) {
		return nil, fmt.Errorf("engine: trainer ensemble of %d members does not match engine's %d", len(t.cfgs), len(cfgs))
	}
	for i := range cfgs {
		if t.cfgs[i].Param != cfgs[i].Param || t.cfgs[i].Bins != cfgs[i].Bins {
			return nil, fmt.Errorf("engine: trainer shape %v/%v does not match engine %v/%v",
				t.cfgs[i].Param, t.cfgs[i].Bins, cfgs[i].Param, cfgs[i].Bins)
		}
	}
	if t.target != nil && t.target != target {
		return nil, errAttached
	}
	t.target = target
	return t.ens.Compile(), nil
}

var errAttached = errors.New("engine: trainer is already attached to another engine")

// Bind attaches the trainer to the engine it should hot-swap, for the
// Tap (event-stream) mode, and installs the trainer's current compiled
// references into it — which also validates the shapes for real: a
// trainer whose parameters or bins mismatch the engine fails here, at
// attach time, instead of silently failing every later swap. The target
// must be an *Engine or *Sharded. The inline mode — Options.Trainer /
// ShardedOptions.Trainer — binds automatically.
func (t *Trainer) Bind(target DBSetter) error {
	in, ok := target.(installer)
	if !ok {
		return fmt.Errorf("engine: a trainer binds to an *Engine or *Sharded, not %T", target)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.target != nil && t.target != in {
		return errAttached
	}
	if err := in.install(t.ens.Compile()); err != nil {
		return err
	}
	t.target = in
	return nil
}

// Compiled returns the latest compiled snapshot of the trainer's
// reference database (possibly empty, for a cold start; nil for an
// ensemble trainer, which compiles through CompiledEnsemble).
func (t *Trainer) Compiled() *core.CompiledDB {
	if !t.single {
		return nil
	}
	return t.compiled().Members()[0]
}

// CompiledEnsemble returns the latest compiled snapshot of an ensemble
// trainer's references (nil for a single-parameter trainer).
func (t *Trainer) CompiledEnsemble() *core.CompiledEnsemble {
	if t.single {
		return nil
	}
	return t.compiled()
}

// compiled compiles the working references under the lock.
func (t *Trainer) compiled() *core.CompiledEnsemble {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ens.Compile()
}

// Database returns a deep copy of the trainer's working database — the
// checkpoint entry point (nil for an ensemble trainer; see Ensemble).
// The clone is taken under the trainer's lock, so it is a consistent
// snapshot even while enrollment is running; serialise it with
// Database.SaveBinary (fast) or Save (interop JSON).
func (t *Trainer) Database() *core.Database {
	if !t.single {
		return nil
	}
	return t.clone().Members()[0]
}

// Ensemble returns a deep copy of an ensemble trainer's working
// references — the fused checkpoint entry point (nil for a
// single-parameter trainer); serialise it with Ensemble.SaveBinary.
func (t *Trainer) Ensemble() *core.Ensemble {
	if t.single {
		return nil
	}
	return t.clone()
}

// Observations appends the reference addr's accumulated observation
// count per member (in member order) to dst, read under the lock
// without copying the references: a one-device query costs no clone.
// Nothing is appended when addr is not a fully-known reference.
func (t *Trainer) Observations(dst []uint64, addr dot11.Addr) []uint64 {
	var buf [core.MaxEnsembleMembers]*core.Signature
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sig := range t.ens.SignaturesInto(buf[:0], addr) {
		dst = append(dst, sig.Observations())
	}
	return dst
}

// clone deep-copies the working references under the lock.
func (t *Trainer) clone() *core.Ensemble {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ens.Clone()
}

// Stats returns a snapshot of the trainer's counters.
func (t *Trainer) Stats() TrainerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Refs = t.ens.Len()
	st.Pending = len(t.pending)
	return st
}

// PendingList returns a snapshot of the senders still accumulating
// toward the enrollment horizon, in ascending address order — the HTTP
// API's view of the enrollment queue. Entries carry address, window
// count and the binding (weakest-member) observation count only: Sig
// and Sigs stay nil, because the live accumulation signatures belong to
// the trainer's goroutine and must not escape. Safe from any goroutine.
func (t *Trainer) PendingList() []PendingEnrollment {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PendingEnrollment, 0, len(t.pending))
	for addr, p := range t.pending { //fp:unordered entries are sorted by address below
		out = append(out, PendingEnrollment{
			Addr: addr, Windows: p.windows, Observations: minSigObs(p.sigs),
		})
	}
	slices.SortFunc(out, func(a, b PendingEnrollment) int {
		return addrCmp([6]byte(a.Addr), [6]byte(b.Addr))
	})
	return out
}

// step runs an inline trainer's enrollment for one closed window —
// after the window's own events, so the promotions swap the references
// the *next* window is matched against, exactly per-window batch
// training's visibility — delivering the trainer's events to sink. It
// is supervised on its own: a panic loses this window's enrollment
// (counted as a trainer fault in health) but not the window. A nil
// trainer does nothing.
func (t *Trainer) step(window int, cands []core.MultiCandidate, sink Sink, health *healthState, healthSink Sink) {
	if t == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			health.recordPanic(healthSink, "trainer", -1, r)
		}
	}()
	emit := func(ev Event) {
		if sink != nil {
			sink.HandleEvent(ev)
		}
	}
	t.observeWindow(window, cands, emit)
}

// observeWindow folds one closed window's candidates into the
// enrollment state, promotes completed senders under the policy, swaps
// the bound engine's references if anything changed, and emits the
// trainer's events (progress, enrollments, then exactly one DBSwapped)
// through emit. Candidates must arrive in ascending address order —
// both engines and the batch paths emit them that way — which makes
// promotion order, and with it the reference insertion order, a
// deterministic function of the stream.
func (t *Trainer) observeWindow(window int, cands []core.MultiCandidate, emit func(Event)) {
	t.mu.Lock()
	// Refresh recency for every pending sender that is a candidate in
	// this window before any MaxPending eviction runs: without this, an
	// eviction triggered early in the window would target senders whose
	// lastWindow is one behind merely because they sort later in the
	// same window's candidate list — cascading into resetting live
	// senders' accumulation instead of shedding genuinely stale ones.
	if t.opts.MaxPending > 0 {
		for i := range cands {
			if p := t.pending[dot11.Addr(cands[i].Addr)]; p != nil {
				p.lastWindow = window
			}
		}
	}
	var evs []Event
	// Promoted senders leave t.pending the moment they are slated, and
	// the promote list carries the *pendingEnroll itself: if a later new
	// sender in this same window triggers evictPending, a promote-slated
	// address must be neither an eviction victim nor re-looked-up as nil.
	type promotion struct {
		addr dot11.Addr
		p    *pendingEnroll
	}
	var promote []promotion
	var refBuf [core.MaxEnsembleMembers]*core.Signature // a candidate's reference lookup
	updated := 0
	for i := range cands {
		addr, candSigs := dot11.Addr(cands[i].Addr), cands[i].Sigs
		if t.denied[addr] {
			t.stats.Denied++
			continue
		}
		if refs := t.ens.SignaturesInto(refBuf[:0], addr); refs != nil {
			// Already enrolled: under Update the window's signatures
			// refresh the reference. Shapes always match — the candidate
			// came from an engine bound to this trainer's configuration.
			if t.opts.Update && mergeSigs(refs, candSigs) {
				updated++
				t.stats.Updated++
			}
			continue
		}
		p := t.pending[addr]
		if p == nil {
			if t.opts.MaxPending > 0 && len(t.pending) >= t.opts.MaxPending {
				t.evictPending()
			}
			p = &pendingEnroll{sigs: make([]*core.Signature, len(t.cfgs))}
			for m, cfg := range t.cfgs {
				p.sigs[m] = core.NewSignature(cfg.Param, cfg.Bins)
			}
			t.pending[addr] = p
		}
		p.windows++
		p.lastWindow = window
		if !mergeSigs(p.sigs, candSigs) {
			continue // impossible by construction; never corrupt state on it
		}
		// The enrollment bar: every member must clear MinObservations
		// (a single-parameter trainer has one member). Progress events
		// and the Confirm callback report that same binding count — the
		// weakest member's — so Observations is always comparable to
		// Required; the enrolled/verdict events report the best-covered
		// member instead (how much traffic the reference froze with).
		barObs := minSigObs(p.sigs)
		if p.windows < t.opts.Horizon || barObs < t.opts.MinObservations {
			evs = append(evs, EnrollmentProgress{
				Window: window, Addr: addr,
				Windows: p.windows, Horizon: t.opts.Horizon,
				Observations: barObs, Required: t.opts.MinObservations,
			})
			continue
		}
		decision := DecideApprove
		if t.opts.Policy == EnrollConfirm {
			decision = DecideReject
			pe := PendingEnrollment{Addr: addr, Windows: p.windows, Observations: barObs}
			if t.single {
				pe.Sig = p.sigs[0]
			} else {
				pe.Sigs = p.sigs
			}
			if cb := t.opts.Decide; cb != nil {
				decision = cb(pe)
			} else if cb := t.opts.Confirm; cb != nil {
				if cb(pe) {
					decision = DecideApprove
				}
			}
		}
		switch decision {
		case DecideApprove:
			delete(t.pending, addr)
			promote = append(promote, promotion{addr: addr, p: p})
		case DecideDefer:
			// Still pending: keep accumulating, report progress so the
			// window's event stream accounts for the sender.
			evs = append(evs, EnrollmentProgress{
				Window: window, Addr: addr,
				Windows: p.windows, Horizon: t.opts.Horizon,
				Observations: barObs, Required: t.opts.MinObservations,
			})
		default: // DecideReject
			delete(t.pending, addr)
			t.denied[addr] = true
			t.stats.Rejected++
		}
	}

	for _, pr := range promote {
		// All members or none: never a partial reference.
		if err := t.ens.Add(pr.addr, pr.p.sigs); err != nil {
			continue // impossible by construction (shape-checked at bind)
		}
		t.stats.Enrolled++
		evs = append(evs, DeviceEnrolled{
			Window: window, Addr: pr.addr,
			Windows: pr.p.windows, Observations: maxSigObs(pr.p.sigs),
			Refs: t.ens.Len(),
		})
	}

	// A swap is claimed — Swaps counted, DBSwapped emitted — only when a
	// database was actually pushed to an engine. A Tap-attached trainer
	// whose Bind was never called still accumulates and promotes (Bind
	// installs the current references when it eventually runs), but it
	// must not report installations that never happened.
	if (len(promote) > 0 || updated > 0) && t.target != nil {
		t.target.install(t.ens.Compile()) // shape-checked at bind; cannot fail
		t.stats.Swaps++
		evs = append(evs, DBSwapped{
			Window: window, Version: t.stats.Swaps,
			Refs: t.ens.Len(), Enrolled: len(promote), Updated: updated,
		})
	}
	t.mu.Unlock()

	// Events are delivered outside the lock, so a sink may call Stats,
	// Database or Compiled without deadlocking.
	if emit != nil {
		for _, ev := range evs {
			emit(ev)
		}
	}
}

// mergeSigs folds a candidate's member signatures into dst (a
// reference's or a pending sender's), reporting whether every member
// merged.
func mergeSigs(dst, src []*core.Signature) bool {
	if len(src) != len(dst) {
		return false
	}
	ok := true
	for m := range dst {
		if err := dst[m].Merge(src[m]); err != nil {
			ok = false
		}
	}
	return ok
}

// pendingEvictCand is the reusable sort record of the pending-eviction
// scan.
type pendingEvictCand struct {
	addr       dot11.Addr
	lastWindow int
}

// evictPending drops the least-recently-seen eighth of MaxPending (at
// least one pending sender) per scan — batched like core.SenderTable's
// cap eviction, so MAC-randomization churn pays one O(n log n) scan per
// batch instead of per over-cap insertion. Ties on last-seen window
// break by ascending address, keeping eviction deterministic, like
// every other bounded-state decision in the pipeline.
func (t *Trainer) evictPending() {
	cands := t.evictScratch[:0]
	for addr, p := range t.pending { //fp:unordered candidates are sorted by (lastWindow, addr) below
		cands = append(cands, pendingEvictCand{addr: addr, lastWindow: p.lastWindow})
	}
	slices.SortFunc(cands, func(a, b pendingEvictCand) int {
		if a.lastWindow != b.lastWindow {
			return cmp.Compare(a.lastWindow, b.lastWindow)
		}
		return addrCmp([6]byte(a.addr), [6]byte(b.addr))
	})
	k := t.opts.MaxPending / 8
	if k < 1 {
		k = 1
	}
	if k > len(cands) {
		k = len(cands)
	}
	for _, c := range cands[:k] {
		delete(t.pending, c.addr)
		t.stats.EvictedPending++
	}
	t.evictScratch = cands[:0] // keep the grown buffer
}

// Tap returns a sink that feeds the trainer from an engine's event
// stream and forwards every event — the engine's first, then the
// trainer's own — to next (which may be nil to consume silently). Use
// Bind to point the trainer at the engine to hot-swap: until Bind runs
// the trainer accumulates and promotes into its private database but
// claims no swaps — no DBSwapped, Stats().Swaps stays zero. Unlike the
// inline mode, the tap observes windows only as their events are
// delivered; on the sharded engine, whose shards match ahead of event
// delivery, a promotion may then reach matching one window later than
// inline attachment would — prefer ShardedOptions.Trainer when the
// exact swap boundary matters.
func (t *Trainer) Tap(next Sink) Sink {
	return &tapSink{t: t, next: next}
}

// tapSink reconstructs windows from the event stream: verdict events
// carry the candidates (in ascending address order), WindowClosed marks
// the boundary.
type tapSink struct {
	t    *Trainer
	next Sink
	buf  []core.MultiCandidate
}

// HandleEvent implements Sink.
//
//fp:mayblock trainer-owned tap: observeWindow re-enters the Trainer, which drives its engine synchronously from Train — no other pusher exists
func (s *tapSink) HandleEvent(ev Event) {
	if s.next != nil {
		s.next.HandleEvent(ev)
	}
	switch ev := ev.(type) {
	case CandidateMatched:
		s.buffer(ev.Window, ev.Addr, ev.Sig, ev.Sigs)
	case UnknownDevice:
		s.buffer(ev.Window, ev.Addr, ev.Sig, ev.Sigs)
	case WindowClosed:
		emit := func(Event) {}
		if s.next != nil {
			emit = s.next.HandleEvent
		}
		s.t.observeWindow(ev.Window, s.buf, emit)
		s.buf = s.buf[:0]
	}
}

// buffer queues one verdict's candidate, in either event shape — a
// single-parameter verdict's Sig is its one member signature. A verdict
// whose member count is not the trainer's is skipped.
func (s *tapSink) buffer(window int, addr dot11.Addr, sig *core.Signature, sigs []*core.Signature) {
	if sig != nil {
		sigs = []*core.Signature{sig}
	}
	if len(sigs) == len(s.t.cfgs) {
		s.buf = append(s.buf, core.MultiCandidate{Addr: [6]byte(addr), Window: window, Sigs: sigs})
	}
}
