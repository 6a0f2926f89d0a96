package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// Database is the reference database of the detection methodology
// (§IV-B): the signatures Sig(r_i) learned from the training trace.
//
// Matching goes through a compiled snapshot (see Compile and
// CompiledDB) that is built lazily and invalidated by Add/Train, so
// steady-state matching never re-derives reference frequency vectors.
type Database struct {
	cfg     Config
	measure Measure
	refs    map[dot11.Addr]*Signature
	order   []dot11.Addr // insertion order for deterministic iteration

	mu       sync.Mutex  // guards compiled
	compiled *CompiledDB // lazily built matching snapshot; nil after mutation
}

// NewDatabase creates an empty reference database. The zero Measure
// selects cosine similarity.
func NewDatabase(cfg Config, m Measure) *Database {
	if m == 0 {
		m = MeasureCosine
	}
	return &Database{
		cfg:     cfg.withDefaults(),
		measure: m,
		refs:    make(map[dot11.Addr]*Signature),
	}
}

// Config returns the extraction configuration the database was built with.
func (db *Database) Config() Config { return db.cfg }

// Measure returns the similarity measure in use.
func (db *Database) Measure() Measure { return db.measure }

// IndexStats describes the compiled snapshot's match index.
func (db *Database) IndexStats() IndexStats { return db.Compile().IndexStats() }

// Len returns the number of reference devices.
func (db *Database) Len() int { return len(db.refs) }

// Devices returns the reference addresses in insertion order.
func (db *Database) Devices() []dot11.Addr {
	out := make([]dot11.Addr, len(db.order))
	copy(out, db.order)
	return out
}

// Signature returns a device's reference signature, or nil. The caller
// may extend the returned signature through its Add/Merge methods;
// Compile detects such mutations via the signature's observation total
// and rebuilds the matching snapshot on next use. (Mutating histograms
// obtained from Signature.Hist directly bypasses the weight bookkeeping
// and is not supported.)
func (db *Database) Signature(addr dot11.Addr) *Signature { return db.refs[addr] }

// Add inserts or merges a reference signature.
func (db *Database) Add(addr dot11.Addr, sig *Signature) error {
	if sig == nil {
		return fmt.Errorf("core: nil signature for %v", addr)
	}
	if sig.Param() != db.cfg.Param {
		return fmt.Errorf("core: signature parameter %v does not match database %v", sig.Param(), db.cfg.Param)
	}
	if sig.bins != db.cfg.Bins {
		return fmt.Errorf("core: signature bin shape %v does not match database %v", sig.bins, db.cfg.Bins)
	}
	db.mu.Lock()
	db.compiled = nil // reference set changes; drop the frozen snapshot
	db.mu.Unlock()
	if existing, ok := db.refs[addr]; ok {
		return existing.Merge(sig)
	}
	db.refs[addr] = sig
	db.order = append(db.order, addr)
	return nil
}

// Clone returns a deep copy of the database: signatures are cloned, so
// the copy can be trained or mutated without touching the original.
// This is the copy-on-write idiom of the online trainer — it clones the
// seed database once and thereafter mutates only its private copy,
// publishing immutable Compile() snapshots to the engines.
func (db *Database) Clone() *Database {
	out := NewDatabase(db.cfg, db.measure)
	out.order = make([]dot11.Addr, len(db.order))
	copy(out.order, db.order)
	for addr, sig := range db.refs {
		out.refs[addr] = sig.Clone()
	}
	return out
}

// Train populates the database from a training trace, keeping only
// senders that clear the minimum-observation rule. Existing entries for
// the same address are merged, so several training windows can be folded
// into one database. New references are inserted in ascending address
// order so the similarity-vector order is reproducible run to run (and
// matches a Save/Load round trip).
func (db *Database) Train(tr *capture.Trace) error {
	sigs := Extract(tr, db.cfg)
	for _, addr := range sortedAddrs(sigs) {
		if err := db.Add(addr, sigs[addr]); err != nil {
			return err
		}
	}
	return nil
}

// Score is one entry of the similarity vector returned by Match.
type Score struct {
	Addr dot11.Addr
	Sim  float64
}

// Match computes the similarity vector <sim_1 … sim_N> of a candidate
// signature against every reference (Algorithm 1), in insertion order.
// It delegates to the compiled snapshot, whose results are bit-identical
// to evaluating Similarity per pair.
func (db *Database) Match(candidate *Signature) []Score {
	return db.Compile().Match(candidate)
}

// MatchAppend appends the similarity vector to dst and returns the
// extended slice; with a reused buffer the call is allocation-free.
func (db *Database) MatchAppend(candidate *Signature, dst []Score) []Score {
	return db.Compile().MatchAppend(candidate, dst)
}

// TopK returns the k best-matching references, ranked by similarity
// with ties broken toward the earlier insertion index.
func (db *Database) TopK(candidate *Signature, k int) []Score {
	return db.Compile().TopK(candidate, k)
}

// Best returns the arg-max reference for the identification test, with
// ok=false for an empty database.
func (db *Database) Best(candidate *Signature) (Score, bool) {
	return db.Compile().Best(candidate)
}

// Above returns the references whose similarity is at least the
// threshold — the similarity test's returned set.
func (db *Database) Above(candidate *Signature, threshold float64) []Score {
	return db.Compile().Above(candidate, threshold)
}

// --- persistence ---------------------------------------------------------------

// jsonDB is the on-disk database layout.
type jsonDB struct {
	Param   string                                   `json:"param"`
	Measure string                                   `json:"measure"`
	Bins    BinSpec                                  `json:"bins"`
	MinObs  int                                      `json:"min_observations"`
	Devices map[string]map[string]histogram.Snapshot `json:"devices"` // addr -> class -> histogram
}

// Save serialises the database as JSON.
func (db *Database) Save(w io.Writer) error {
	out := jsonDB{
		Param:   db.cfg.Param.ShortName(),
		Measure: db.measure.String(),
		Bins:    db.cfg.Bins,
		MinObs:  db.cfg.MinObservations,
		Devices: make(map[string]map[string]histogram.Snapshot, len(db.refs)),
	}
	for addr, sig := range db.refs {
		classes := make(map[string]histogram.Snapshot, dot11.NumClasses)
		for _, class := range sig.Classes() {
			classes[class.String()] = sig.Hist(class).Snapshot()
		}
		out.Devices[addr.String()] = classes
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a database written by Save.
func Load(r io.Reader) (*Database, error) {
	var in jsonDB
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding database: %w", err)
	}
	param, err := ParamByShortName(in.Param)
	if err != nil {
		return nil, err
	}
	measure, err := MeasureByName(in.Measure)
	if err != nil {
		return nil, err // already carries the package prefix and the valid names
	}
	cfg := Config{Param: param, Bins: in.Bins, MinObservations: in.MinObs}
	db := NewDatabase(cfg, measure)

	classByName := make(map[string]dot11.Class, dot11.NumClasses)
	for c := dot11.Class(0); c < dot11.Class(dot11.NumClasses); c++ {
		classByName[c.String()] = c
	}
	// Sort addresses for a deterministic insertion order.
	addrs := make([]string, 0, len(in.Devices))
	for a := range in.Devices { //fp:unordered keys are sorted below; insertion order is deterministic
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, as := range addrs {
		addr, err := dot11.ParseAddr(as)
		if err != nil {
			return nil, fmt.Errorf("core: device address: %w", err)
		}
		sig := NewSignature(param, cfg.Bins)
		for cs, snap := range in.Devices[as] {
			class, ok := classByName[cs]
			if !ok {
				return nil, fmt.Errorf("core: unknown frame class %q", cs)
			}
			h, err := histogram.FromSnapshot(snap)
			if err != nil {
				return nil, fmt.Errorf("core: device %s class %s: %w", as, cs, err)
			}
			if h.BinWidth() != cfg.Bins.Width || h.Bins() != cfg.Bins.Bins {
				return nil, fmt.Errorf("core: device %s class %s: histogram shape %d×%v does not match database %v",
					as, cs, h.Bins(), h.BinWidth(), cfg.Bins)
			}
			sig.setHist(class, &h)
		}
		if err := db.Add(addr, sig); err != nil {
			return nil, err
		}
	}
	return db, nil
}
