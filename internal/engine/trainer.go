package engine

import (
	"cmp"
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
// sender's window signatures over the enrollment horizon. When a sender
// completes the horizon, the enrollment policy (auto, confirm-callback,
// deny-list) decides its fate; completed signatures are promoted into
// the trainer's private copy-on-write core.Database, compiled, and
// hot-swapped into the bound engine with SetDB. Each promotion batch
// emits DeviceEnrolled events (one per device), EnrollmentProgress for
// senders still accumulating, and exactly one DBSwapped.
//
// A trainer created with NewEnsembleTrainer / NewEnsembleTrainerFrom
// serves an ensemble engine instead: it accumulates one signature per
// member parameter per pending sender and promotes all member
// signatures atomically (Ensemble.Add — a live-enrolled ensemble can
// never hold a partially-known device), hot-swapping one compiled
// ensemble per promotion batch through SetEnsembleDB.
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
	mu           sync.Mutex
	cfg          core.Config
	cfgs         []core.Config // ensemble members; nil in single mode
	multi        bool
	opts         TrainerOptions
	db           *core.Database // single mode: private working copy
	ens          *core.Ensemble // ensemble mode: private working copy
	pending      map[dot11.Addr]*pendingEnroll
	denied       map[dot11.Addr]bool
	evictScratch []pendingEvictCand
	target       DBSetter         // single mode engine
	etarget      EnsembleDBSetter // ensemble mode engine
	stats        TrainerStats
}

// DBSetter is the hot-swap half of an engine as the trainer sees it;
// *Engine and *Sharded both implement it.
type DBSetter interface {
	SetDB(*core.CompiledDB) error
}

// EnsembleDBSetter is the hot-swap half of an ensemble engine; *Engine
// and *Sharded both implement it (the call fails on engines built in
// single-parameter mode).
type EnsembleDBSetter interface {
	SetEnsembleDB(*core.CompiledEnsemble) error
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
	return newTrainer(core.NewDatabase(cfg, measure), opts)
}

// NewTrainerFrom creates a trainer seeded with an existing database —
// warm start: known references keep matching while unknown senders
// enroll around them. The seed is deep-copied (copy-on-write); the
// caller's database is never touched.
func NewTrainerFrom(seed *core.Database, opts TrainerOptions) *Trainer {
	return newTrainer(seed.Clone(), opts)
}

func newTrainer(db *core.Database, opts TrainerOptions) *Trainer {
	t := newTrainerCommon(opts)
	t.cfg = db.Config()
	t.db = db
	return t
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
	return newEnsembleTrainer(ens, opts), nil
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
	return newEnsembleTrainer(seed.Clone(), opts), nil
}

func newEnsembleTrainer(ens *core.Ensemble, opts TrainerOptions) *Trainer {
	t := newTrainerCommon(opts)
	t.multi = true
	t.ens = ens
	t.cfgs = ens.Configs()
	t.cfg = t.cfgs[0]
	return t
}

func newTrainerCommon(opts TrainerOptions) *Trainer {
	if opts.Horizon <= 0 {
		opts.Horizon = 1
	}
	t := &Trainer{
		opts:    opts,
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
func (t *Trainer) Config() core.Config { return t.cfg }

// Configs returns the member configurations of an ensemble trainer, or
// nil for a single-parameter one.
func (t *Trainer) Configs() []core.Config {
	if !t.multi {
		return nil
	}
	out := make([]core.Config, len(t.cfgs))
	copy(out, t.cfgs)
	return out
}

// bind attaches the trainer to the engine it hot-swaps. One engine per
// trainer: a second bind to a different target fails.
func (t *Trainer) bind(target DBSetter, cfg core.Config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.multi {
		return fmt.Errorf("engine: ensemble trainer attached to a single-parameter engine")
	}
	if t.cfg.Param != cfg.Param || t.cfg.Bins != cfg.Bins {
		return fmt.Errorf("engine: trainer shape %v/%v does not match engine %v/%v",
			t.cfg.Param, t.cfg.Bins, cfg.Param, cfg.Bins)
	}
	if t.target != nil && t.target != target {
		return fmt.Errorf("engine: trainer is already attached to another engine")
	}
	t.target = target
	return nil
}

// bindEnsemble is bind for the ensemble mode.
func (t *Trainer) bindEnsemble(target EnsembleDBSetter, cfgs []core.Config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.multi {
		return fmt.Errorf("engine: single-parameter trainer attached to an ensemble engine")
	}
	if len(t.cfgs) != len(cfgs) {
		return fmt.Errorf("engine: trainer ensemble of %d members does not match engine's %d", len(t.cfgs), len(cfgs))
	}
	for i := range cfgs {
		if t.cfgs[i].Param != cfgs[i].Param || t.cfgs[i].Bins != cfgs[i].Bins {
			return fmt.Errorf("engine: trainer member %d shape %v/%v does not match engine %v/%v",
				i, t.cfgs[i].Param, t.cfgs[i].Bins, cfgs[i].Param, cfgs[i].Bins)
		}
	}
	if t.etarget != nil && t.etarget != target {
		return fmt.Errorf("engine: trainer is already attached to another engine")
	}
	t.etarget = target
	return nil
}

// Bind attaches the trainer to the engine it should hot-swap, for the
// Tap (event-stream) mode, and installs the trainer's current compiled
// references into it — which also validates the shapes for real: a
// trainer whose parameter or bins mismatch the engine fails here, at
// attach time, instead of silently failing every later swap. An
// ensemble trainer's target must implement EnsembleDBSetter (both
// engines do; the ensemble-mode SetEnsembleDB is the call that must
// succeed). The inline mode — Options.Trainer / ShardedOptions.Trainer
// — binds automatically.
func (t *Trainer) Bind(target DBSetter) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.multi {
		et, ok := target.(EnsembleDBSetter)
		if !ok {
			return fmt.Errorf("engine: ensemble trainer needs an engine with SetEnsembleDB")
		}
		if t.etarget != nil && t.etarget != et {
			return fmt.Errorf("engine: trainer is already attached to another engine")
		}
		if err := et.SetEnsembleDB(t.ens.Compile()); err != nil {
			return err
		}
		t.etarget = et
		return nil
	}
	if t.target != nil && t.target != target {
		return fmt.Errorf("engine: trainer is already attached to another engine")
	}
	if err := target.SetDB(t.db.Compile()); err != nil {
		return err
	}
	t.target = target
	return nil
}

// Compiled returns the latest compiled snapshot of the trainer's
// reference database (possibly empty, for a cold start; nil for an
// ensemble trainer, which compiles through CompiledEnsemble).
func (t *Trainer) Compiled() *core.CompiledDB {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.multi {
		return nil
	}
	return t.db.Compile()
}

// CompiledEnsemble returns the latest compiled snapshot of an ensemble
// trainer's references (nil for a single-parameter trainer).
func (t *Trainer) CompiledEnsemble() *core.CompiledEnsemble {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.multi {
		return nil
	}
	return t.ens.Compile()
}

// Database returns a deep copy of the trainer's working database — the
// checkpoint entry point (nil for an ensemble trainer; see Ensemble).
// The clone is taken under the trainer's lock, so it is a consistent
// snapshot even while enrollment is running; serialise it with
// Database.SaveBinary (fast) or Save (interop JSON).
func (t *Trainer) Database() *core.Database {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.multi {
		return nil
	}
	return t.db.Clone()
}

// Ensemble returns a deep copy of an ensemble trainer's working
// references — the fused checkpoint entry point (nil for a
// single-parameter trainer); serialise it with Ensemble.SaveBinary.
func (t *Trainer) Ensemble() *core.Ensemble {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.multi {
		return nil
	}
	return t.ens.Clone()
}

// Stats returns a snapshot of the trainer's counters.
func (t *Trainer) Stats() TrainerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	if t.multi {
		st.Refs = t.ens.Len()
	} else {
		st.Refs = t.db.Len()
	}
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

// refsLocked returns the current reference count; call with mu held.
func (t *Trainer) refsLocked() int {
	if t.multi {
		return t.ens.Len()
	}
	return t.db.Len()
}

// observeWindow folds one closed window's candidates into the
// enrollment state, promotes completed senders under the policy, swaps
// the bound engine's database if anything changed, and emits the
// trainer's events (progress, enrollments, then exactly one DBSwapped)
// through emit. Candidates must arrive in ascending address order —
// both engines and the batch paths emit them that way — which makes
// promotion order, and with it the reference insertion order, a
// deterministic function of the stream. observeWindowMulti is the
// ensemble form over multi-parameter candidates; the two share every
// policy decision through observeCommon.
func (t *Trainer) observeWindow(window int, cands []core.Candidate, emit func(Event)) {
	t.observeCommon(window, len(cands),
		func(i int) (dot11.Addr, []*core.Signature) {
			return dot11.Addr(cands[i].Addr), nil
		},
		func(i int) *core.Signature { return cands[i].Sig },
		emit)
}

// observeWindowMulti is observeWindow for an ensemble trainer's
// multi-parameter candidates.
func (t *Trainer) observeWindowMulti(window int, cands []core.MultiCandidate, emit func(Event)) {
	t.observeCommon(window, len(cands),
		func(i int) (dot11.Addr, []*core.Signature) {
			return dot11.Addr(cands[i].Addr), cands[i].Sigs
		},
		nil,
		emit)
}

// observeCommon is the single enrollment pipeline behind both candidate
// shapes: candAt yields candidate i's address and (ensemble mode) its
// member signatures; sigAt yields the single-parameter signature (nil
// function in ensemble mode).
func (t *Trainer) observeCommon(window, n int, candAt func(int) (dot11.Addr, []*core.Signature), sigAt func(int) *core.Signature, emit func(Event)) {
	t.mu.Lock()
	// Refresh recency for every pending sender that is a candidate in
	// this window before any MaxPending eviction runs: without this, an
	// eviction triggered early in the window would target senders whose
	// lastWindow is one behind merely because they sort later in the
	// same window's candidate list — cascading into resetting live
	// senders' accumulation instead of shedding genuinely stale ones.
	if t.opts.MaxPending > 0 {
		for i := 0; i < n; i++ {
			addr, _ := candAt(i)
			if p := t.pending[addr]; p != nil {
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
	updated := 0
	for i := 0; i < n; i++ {
		addr, candSigs := candAt(i)
		if t.denied[addr] {
			t.stats.Denied++
			continue
		}
		if t.updateKnown(addr, candSigs, sigAt, i, &updated) {
			continue
		}
		p := t.pending[addr]
		if p == nil {
			if t.opts.MaxPending > 0 && len(t.pending) >= t.opts.MaxPending {
				t.evictPending()
			}
			p = &pendingEnroll{sigs: t.newPendingSigs()}
			t.pending[addr] = p
		}
		p.windows++
		p.lastWindow = window
		if !t.mergePending(p, candSigs, sigAt, i) {
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
			if t.multi {
				pe.Sigs = p.sigs
			} else {
				pe.Sig = p.sigs[0]
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
		var err error
		if t.multi {
			err = t.ens.Add(pr.addr, pr.p.sigs) // all members or none: never a partial reference
		} else {
			err = t.db.Add(pr.addr, pr.p.sigs[0])
		}
		if err != nil {
			continue // impossible by construction (shape-checked at bind)
		}
		t.stats.Enrolled++
		evs = append(evs, DeviceEnrolled{
			Window: window, Addr: pr.addr,
			Windows: pr.p.windows, Observations: maxSigObs(pr.p.sigs),
			Refs: t.refsLocked(),
		})
	}

	// A swap is claimed — Swaps counted, DBSwapped emitted — only when a
	// database was actually pushed to an engine. A Tap-attached trainer
	// whose Bind was never called still accumulates and promotes (Bind
	// installs the current references when it eventually runs), but it
	// must not report installations that never happened.
	if bound := t.target != nil || t.etarget != nil; (len(promote) > 0 || updated > 0) && bound {
		if t.multi {
			t.etarget.SetEnsembleDB(t.ens.Compile()) // shape-checked at bind; cannot fail
		} else {
			t.target.SetDB(t.db.Compile()) // shape-checked at bind; cannot fail
		}
		t.stats.Swaps++
		evs = append(evs, DBSwapped{
			Window: window, Version: t.stats.Swaps,
			Refs: t.refsLocked(), Enrolled: len(promote), Updated: updated,
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

// newPendingSigs allocates the per-member accumulation signatures of a
// fresh pending sender.
func (t *Trainer) newPendingSigs() []*core.Signature {
	if t.multi {
		sigs := make([]*core.Signature, len(t.cfgs))
		for i, cfg := range t.cfgs {
			sigs[i] = core.NewSignature(cfg.Param, cfg.Bins)
		}
		return sigs
	}
	return []*core.Signature{core.NewSignature(t.cfg.Param, t.cfg.Bins)}
}

// updateKnown merges an already-enrolled candidate into its reference
// under Update mode and reports whether the candidate was a known
// reference (and so consumed). Shapes always match: the candidate came
// from an engine bound to this trainer's configuration.
func (t *Trainer) updateKnown(addr dot11.Addr, candSigs []*core.Signature, sigAt func(int) *core.Signature, i int, updated *int) bool {
	if t.multi {
		refs := t.ens.Signatures(addr)
		if refs == nil {
			return false
		}
		if t.opts.Update {
			ok := true
			for m := range refs {
				if err := refs[m].Merge(candSigs[m]); err != nil {
					ok = false
				}
			}
			if ok {
				*updated++
				t.stats.Updated++
			}
		}
		return true
	}
	ref := t.db.Signature(addr)
	if ref == nil {
		return false
	}
	if t.opts.Update {
		if err := ref.Merge(sigAt(i)); err == nil {
			*updated++
			t.stats.Updated++
		}
	}
	return true
}

// mergePending folds a candidate's window signature(s) into the pending
// accumulation, reporting success.
func (t *Trainer) mergePending(p *pendingEnroll, candSigs []*core.Signature, sigAt func(int) *core.Signature, i int) bool {
	if t.multi {
		for m := range p.sigs {
			if err := p.sigs[m].Merge(candSigs[m]); err != nil {
				return false
			}
		}
		return true
	}
	return p.sigs[0].Merge(sigAt(i)) == nil
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
// the boundary. Ensemble engines' verdicts carry Sigs and feed the
// multi-parameter observation path.
type tapSink struct {
	t    *Trainer
	next Sink
	buf  []core.Candidate
	mbuf []core.MultiCandidate
}

// HandleEvent implements Sink.
//
//fp:mayblock trainer-owned tap: observeWindow* re-enters the Trainer, which drives its engine synchronously from Train — no other pusher exists
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
		if s.t.multi {
			s.t.observeWindowMulti(ev.Window, s.mbuf, emit)
		} else {
			s.t.observeWindow(ev.Window, s.buf, emit)
		}
		s.buf = s.buf[:0]
		s.mbuf = s.mbuf[:0]
	}
}

// buffer queues one verdict's candidate in the shape the trainer runs
// in.
func (s *tapSink) buffer(window int, addr dot11.Addr, sig *core.Signature, sigs []*core.Signature) {
	if s.t.multi {
		if sigs != nil {
			s.mbuf = append(s.mbuf, core.MultiCandidate{Addr: [6]byte(addr), Window: window, Sigs: sigs})
		}
		return
	}
	if sig != nil {
		s.buf = append(s.buf, core.Candidate{Addr: [6]byte(addr), Window: window, Sig: sig})
	}
}
