package core

import (
	"fmt"
	"sync"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
)

// MaxEnsembleMembers bounds the member count of an ensemble: members
// must carry distinct parameters — the paper's five plus the three
// probe-content parameters — so an ensemble can never combine more.
// Fixed-size per-record buffers in the streaming paths are sized by it.
const MaxEnsembleMembers = 8

// validateEnsembleConfigs applies the shared member rules: at least one
// member, distinct parameters, at most MaxEnsembleMembers.
func validateEnsembleConfigs(cfgs []Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: ensemble needs at least one parameter")
	}
	if len(cfgs) > MaxEnsembleMembers {
		return fmt.Errorf("core: ensemble of %d members exceeds the %d distinct parameters", len(cfgs), MaxEnsembleMembers)
	}
	seen := make(map[Param]bool, len(cfgs))
	for _, cfg := range cfgs {
		if seen[cfg.Param] {
			return fmt.Errorf("core: duplicate ensemble parameter %v", cfg.Param)
		}
		seen[cfg.Param] = true
	}
	return nil
}

// Ensemble combines several network parameters into one fingerprint —
// the improvement the paper's conclusion explicitly leaves to future
// work ("whether the fingerprinting method can be improved by combining
// several network parameters"). Each parameter keeps its own reference
// database; a candidate's combined similarity to a reference is the
// mean of its per-parameter similarities.
//
// Matching goes through a compiled snapshot (Compile, CompiledEnsemble)
// that freezes every member's CompiledDB and the fully-known reference
// set once per reference change, so steady-state fused matching never
// re-derives member snapshots per candidate.
type Ensemble struct {
	dbs []*Database

	mu       sync.Mutex        // guards compiled
	compiled *CompiledEnsemble // cached fused snapshot; rebuilt when a member recompiles
}

// NewEnsemble creates an ensemble over the given extraction
// configurations (typically one Config per Param). The zero Measure
// selects cosine similarity for every member.
func NewEnsemble(m Measure, cfgs ...Config) (*Ensemble, error) {
	if err := validateEnsembleConfigs(cfgs); err != nil {
		return nil, err
	}
	e := &Ensemble{dbs: make([]*Database, 0, len(cfgs))}
	for _, cfg := range cfgs {
		e.dbs = append(e.dbs, NewDatabase(cfg, m))
	}
	return e, nil
}

// NewEnsembleFrom assembles an ensemble from existing member databases
// (e.g. separately trained or checkpoint-loaded references). The
// members must carry distinct parameters and share one similarity
// measure; they are adopted, not copied — Clone first to keep the
// originals untouched.
func NewEnsembleFrom(dbs ...*Database) (*Ensemble, error) {
	cfgs := make([]Config, len(dbs))
	for i, db := range dbs {
		cfgs[i] = db.Config()
	}
	if err := validateEnsembleConfigs(cfgs); err != nil {
		return nil, err
	}
	for _, db := range dbs[1:] {
		if db.Measure() != dbs[0].Measure() {
			return nil, fmt.Errorf("core: ensemble members mix measures %v and %v", dbs[0].Measure(), db.Measure())
		}
	}
	e := &Ensemble{dbs: make([]*Database, len(dbs))}
	copy(e.dbs, dbs)
	return e, nil
}

// Params returns the member parameters in order.
func (e *Ensemble) Params() []Param {
	out := make([]Param, len(e.dbs))
	for i, db := range e.dbs {
		out[i] = db.Config().Param
	}
	return out
}

// Configs returns the member extraction configurations in order.
func (e *Ensemble) Configs() []Config {
	out := make([]Config, len(e.dbs))
	for i, db := range e.dbs {
		out[i] = db.Config()
	}
	return out
}

// Measure returns the similarity measure shared by every member.
func (e *Ensemble) Measure() Measure { return e.dbs[0].Measure() }

// Members returns the member databases in parameter order. They are the
// live references, not copies: mutations (Add, Train) are picked up by
// the next Compile.
func (e *Ensemble) Members() []*Database {
	out := make([]*Database, len(e.dbs))
	copy(out, e.dbs)
	return out
}

// Clone returns a deep copy of the ensemble — every member database
// cloned — so the copy can be trained or mutated without touching the
// original. This is the online trainer's copy-on-write idiom, extended
// to fused references.
func (e *Ensemble) Clone() *Ensemble {
	out := &Ensemble{dbs: make([]*Database, len(e.dbs))}
	for i, db := range e.dbs {
		out.dbs[i] = db.Clone()
	}
	return out
}

// Train populates every member database from the training trace. Each
// member applies its own minimum-observation rule, so a device can end
// up known to some members but not all — such partially-known devices
// are never matchable (Match requires every member) and are reported by
// Partial, not silently hidden.
func (e *Ensemble) Train(tr *capture.Trace) error {
	for _, db := range e.dbs {
		if err := db.Train(tr); err != nil {
			return err
		}
	}
	return nil
}

// Add inserts (or merges into) a reference atomically across every
// member: sigs must carry one signature per member, shape-matched, and
// either every member accepts or none is touched — an ensemble grown
// through Add can never hold a partially-known device. It is the online
// trainer's promotion entry point.
func (e *Ensemble) Add(addr dot11.Addr, sigs []*Signature) error {
	if len(sigs) != len(e.dbs) {
		return fmt.Errorf("core: %d signatures for an ensemble of %d members", len(sigs), len(e.dbs))
	}
	for i, sig := range sigs {
		if sig == nil {
			return fmt.Errorf("core: nil member %d signature for %v", i, addr)
		}
		if sig.Param() != e.dbs[i].Config().Param {
			return fmt.Errorf("core: member %d signature parameter %v does not match database %v",
				i, sig.Param(), e.dbs[i].Config().Param)
		}
		if sig.bins != e.dbs[i].Config().Bins {
			return fmt.Errorf("core: member %d signature bin shape %v does not match database %v",
				i, sig.bins, e.dbs[i].Config().Bins)
		}
	}
	for i, sig := range sigs {
		if err := e.dbs[i].Add(addr, sig); err != nil {
			return err // unreachable after the checks above; never half-applied
		}
	}
	return nil
}

// Signatures returns a device's per-member reference signatures, or nil
// when the device is not known to every member.
func (e *Ensemble) Signatures(addr dot11.Addr) []*Signature {
	out := make([]*Signature, len(e.dbs))
	for i, db := range e.dbs {
		if out[i] = db.Signature(addr); out[i] == nil {
			return nil
		}
	}
	return out
}

// Len returns the number of devices known to every member database —
// the matchable reference set. Devices that cleared the
// minimum-observation rule for some members but not all do not count;
// Partial lists them. The count walks member 0's insertion order in
// place, probing only the other members, so a one-member ensemble
// counts in O(1) and no call allocates.
func (e *Ensemble) Len() int {
	n := len(e.dbs[0].order)
	if len(e.dbs) == 1 {
		return n
	}
	for _, addr := range e.dbs[0].order {
		for _, db := range e.dbs[1:] {
			if db.refs[addr] == nil {
				n--
				break
			}
		}
	}
	return n
}

// Partial returns the devices known to at least one member but not all
// — enrolled, yet never matchable, because Match requires a similarity
// from every member. A non-empty partial set after Train means some
// devices cleared the minimum-observation rule for a subset of the
// parameters only; the operator sees them here instead of wondering why
// an enrolled device never matches. Ascending address order.
func (e *Ensemble) Partial() []dot11.Addr {
	seen := make(map[dot11.Addr]bool)
	var out []dot11.Addr
	for _, db := range e.dbs {
		for _, addr := range db.Devices() {
			if !seen[addr] && !e.knownToAll(addr) {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	sortAddrs(out)
	return out
}

func (e *Ensemble) knownToAll(addr dot11.Addr) bool {
	for _, db := range e.dbs {
		if db.refs[addr] == nil {
			return false
		}
	}
	return true
}

// MultiCandidate is one device in one detection window, carrying a
// signature per member parameter.
type MultiCandidate struct {
	Addr   [6]byte
	Window int
	Sigs   []*Signature // aligned with Params()
}

// CandidatesIn extracts multi-parameter candidates per detection
// window: one pass over the validation trace, one window clock and one
// shared inter-arrival context, one signature per member per sender
// (NewEnsembleAccumulator is the streaming form; this is its batch
// adapter, so batch and streaming fused extraction are a single code
// path). A device qualifies in a window when it clears every member's
// minimum-observation rule — the all-members requirement is explicit,
// and candidate discovery iterates every member's senders, so a window
// where one member's parameter is undefined (e.g. a single-frame window
// under inter-arrival) cannot hide the sender from the others.
func (e *Ensemble) CandidatesIn(tr *capture.Trace, window interface{ Microseconds() int64 }) []MultiCandidate {
	var out []MultiCandidate
	acc, err := NewEnsembleAccumulator(time.Duration(window.Microseconds())*time.Microsecond, e.Configs(),
		func(w *WindowResult) { out = append(out, w.Multi...) })
	if err != nil {
		return nil // member configs were validated at construction; unreachable
	}
	for i := range tr.Records {
		acc.Push(&tr.Records[i])
	}
	acc.Flush()
	return out
}

// Match returns the combined similarity vector: for each reference
// known to all members, the mean per-parameter similarity. It delegates
// to the compiled snapshot; values are bit-identical to averaging
// per-pair Similarity calls.
func (e *Ensemble) Match(c MultiCandidate) []Score {
	fused, _ := e.Compile().Match(c)
	return fused
}

// Best returns the arg-max combined match.
func (e *Ensemble) Best(c MultiCandidate) (Score, bool) {
	return e.Compile().Best(c)
}

// TopK returns the k best fused references; see CompiledEnsemble.TopK.
func (e *Ensemble) TopK(c MultiCandidate, k int) []Score {
	return e.Compile().TopK(c, k)
}

// IndexStats aggregates the members' compiled index stats; see
// CompiledEnsemble.IndexStats.
func (e *Ensemble) IndexStats() IndexStats {
	return e.Compile().IndexStats()
}
