package core

import (
	"fmt"
	"slices"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// Signature is a device signature per Definition 1: one
// percentage-frequency histogram per frame type, each weighted by the
// frame type's share of the device's observations.
//
// The per-class histograms live inline in a fixed array indexed by
// frame class (a slot with zero bins is absent), so the extraction hot
// path costs an array index per observation instead of a map lookup,
// and a signature needs one allocation for itself plus one count slice
// per class actually observed.
//
// A reference loaded from a binary checkpoint holds its sparse classes
// as read-only cells (non-zero bins and counts) shared by its clones,
// until the first Add or Merge densifies it. They hang off one pointer
// to keep Signature, allocated per sender per window, in its size class.
type Signature struct {
	param Param
	bins  BinSpec
	hists [dot11.NumClasses]histogram.Histogram // value slots; Bins()==0 marks an absent class
	cells *[]cellRow                            // classes held in cell form; nil once dense
	nhist int                                   // number of present classes, in either form
	total uint64
}

// cellRow is one class's counts as compile and save read them: ascending
// non-zero bins and their counts or, with bins nil, the dense row.
type cellRow struct {
	class          dot11.Class
	bins           []int32
	counts         []uint64
	total, dropped uint64
}

// bin returns the bin of the row's k-th count.
func (r *cellRow) bin(k int) int {
	if r.bins == nil {
		return k
	}
	return int(r.bins[k])
}

// hist expands the row into a fresh dense histogram of the given shape.
func (r *cellRow) hist(spec BinSpec) histogram.Histogram {
	counts := make([]uint64, spec.Bins) //fp:allocok only loaded references hold cells; the live candidates the match kernel reads are dense
	for k, c := range r.counts {
		counts[r.bin(k)] = c
	}
	// The loader validated the shape, so the snapshot is valid.
	h, _ := histogram.FromSnapshot(histogram.Snapshot{BinWidth: spec.Width, Counts: counts, Dropped: r.dropped})
	return h
}

// NewSignature creates an empty signature for a parameter and bin shape.
//
//fp:coldpath constructor; runs once per sender admission, amortised across the sender's frames
func NewSignature(param Param, bins BinSpec) *Signature {
	return &Signature{param: param, bins: bins}
}

// Param returns the parameter the signature is built from.
func (s *Signature) Param() Param { return s.param }

// Add records one observation for a frame class, applying the bin
// spec's scale transform.
func (s *Signature) Add(class dot11.Class, v float64) {
	h := &s.hists[class]
	if h.Bins() == 0 {
		s.densify() // a loaded reference's class may be in cell form
		if h.Bins() == 0 {
			h.Init(s.bins.Bins, s.bins.Width)
			s.nhist++
		}
	}
	before := h.Total()
	h.Add(s.bins.Transform(v))
	s.total += h.Total() - before
}

// Observations returns the total observation count |P(s)| across frame
// types — the quantity the ≥50-observation rule applies to (§V-C).
func (s *Signature) Observations() uint64 { return s.total }

// Classes returns the frame classes present, in stable order.
func (s *Signature) Classes() []dot11.Class {
	out := make([]dot11.Class, 0, s.nhist)
	for c := range s.hists {
		if _, ok := s.row(dot11.Class(c)); ok {
			out = append(out, dot11.Class(c))
		}
	}
	return out
}

// Hist returns the histogram for a class, or nil if absent. A class in
// cell form comes back as a fresh dense copy: reading writes nothing.
func (s *Signature) Hist(class dot11.Class) *histogram.Histogram {
	if int(class) < len(s.hists) && s.hists[class].Bins() != 0 {
		return &s.hists[class]
	}
	if r, ok := s.row(class); ok {
		h := r.hist(s.bins)
		return &h
	}
	return nil
}

// row returns a present class's counts in either form without copying
// them; ok is false for an absent class.
func (s *Signature) row(class dot11.Class) (cellRow, bool) {
	if int(class) >= len(s.hists) {
		return cellRow{}, false
	}
	if h := &s.hists[class]; h.Bins() != 0 {
		return cellRow{class: class, counts: h.CountsView(), total: h.Total(), dropped: h.Dropped()}, true
	}
	if s.cells != nil {
		for _, r := range *s.cells {
			if r.class == class {
				return r, true
			}
		}
	}
	return cellRow{}, false
}

// setHist installs a decoded histogram for a class the signature does
// not yet carry; the persistence loaders validate class and shape first.
func (s *Signature) setHist(class dot11.Class, h *histogram.Histogram) {
	s.hists[class] = *h
	s.nhist++
	s.total += h.Total()
}

// setCells installs a loaded device's cell rows (copied) for classes it
// does not yet carry; the binary loader validates them first.
func (s *Signature) setCells(rows []cellRow) {
	rows = slices.Clone(rows)
	s.cells = &rows
	for _, r := range rows {
		s.nhist++
		s.total += r.total
	}
}

// densify expands the cells into the inline histograms, once per loaded reference.
//
//fp:coldpath runs once per loaded reference, on its first mutation
func (s *Signature) densify() {
	if s.cells == nil {
		return
	}
	for _, r := range *s.cells {
		s.hists[r.class] = r.hist(s.bins)
	}
	s.cells = nil
}

// Weight returns weight_ftype = |P^ftype| / Σ|P^ftype| (Definition 1).
func (s *Signature) Weight(class dot11.Class) float64 {
	r, ok := s.row(class)
	if !ok || s.total == 0 {
		return 0
	}
	return float64(r.total) / float64(s.total)
}

// Clone returns a deep copy of the signature. Used by the online
// trainer to snapshot enrollment state without aliasing live
// histograms. The cell form is immutable, so the copy shares it.
func (s *Signature) Clone() *Signature {
	c := &Signature{
		param: s.param,
		bins:  s.bins,
		cells: s.cells,
		nhist: s.nhist,
		total: s.total,
	}
	for i := range s.hists {
		if s.hists[i].Bins() != 0 {
			c.hists[i] = *s.hists[i].Clone()
		}
	}
	return c
}

// Merge folds other into s (same parameter and bin shape required).
// Used to extend reference signatures with additional training windows.
func (s *Signature) Merge(other *Signature) error {
	if other == nil {
		return nil
	}
	if s.param != other.param || s.bins != other.bins {
		return fmt.Errorf("core: signature shape mismatch: %v/%v vs %v/%v",
			s.param, s.bins, other.param, other.bins)
	}
	s.densify()
	for class := range other.hists {
		oh := other.Hist(dot11.Class(class))
		if oh == nil {
			continue
		}
		h := &s.hists[class]
		if h.Bins() == 0 {
			s.hists[class] = *oh.Clone()
			s.nhist++
			s.total += oh.Total()
			continue
		}
		before := h.Total()
		if err := h.Merge(oh); err != nil {
			return err
		}
		s.total += h.Total() - before
	}
	return nil
}

// Config parameterises signature extraction.
type Config struct {
	// Param selects the network parameter.
	Param Param
	// Bins shapes the histograms; the zero value selects DefaultBins.
	Bins BinSpec
	// MinObservations is the minimum |P(s)| for a signature to be
	// emitted; the zero value selects the paper's 50 — except for the
	// probe-content parameters, where it selects 8: probe requests are
	// orders of magnitude rarer than data frames, and 50 of them would
	// disqualify every sender in a realistic window.
	MinObservations int
	// KeepBadFCS also attributes frames that failed their checksum.
	// The default (false) matches a real tool: corrupt frames advance
	// the inter-arrival context but are never attributed.
	KeepBadFCS bool
}

// withDefaults materialises default fields.
func (c Config) withDefaults() Config {
	if c.Bins == (BinSpec{}) {
		c.Bins = DefaultBins(c.Param)
	}
	if c.MinObservations == 0 {
		c.MinObservations = 50
		switch c.Param {
		case ParamProbeIE, ParamProbeCap, ParamProbeSSID:
			c.MinObservations = 8
		}
	}
	return c
}

// DefaultConfig returns the paper's configuration for a parameter.
func DefaultConfig(p Param) Config {
	return Config{Param: p}.withDefaults()
}

// Extract builds signatures for every sender in the trace (§IV-A,
// Figure 1): every frame advances the previous-frame context; only
// frames with a known transmitter address contribute attributed values;
// senders with fewer than MinObservations observations are dropped.
func Extract(tr *capture.Trace, cfg Config) map[dot11.Addr]*Signature {
	cfg = cfg.withDefaults()
	// Sized from the record count: real traces carry thousands of frames
	// per sender, so this hint avoids rehashing without overshooting.
	sigs := make(map[dot11.Addr]*Signature, 4+len(tr.Records)/2048)
	var prevT int64 = -1
	// Frames arrive in bursts from one transmitter, so a one-entry cache
	// in front of the sender map absorbs most lookups.
	var lastAddr dot11.Addr
	var lastSig *Signature
	for i := range tr.Records {
		rec := &tr.Records[i]
		if !rec.Sender.IsZero() && (rec.FCSOK || cfg.KeepBadFCS) {
			if v, ok := cfg.Param.Value(rec, prevT); ok {
				sig := lastSig
				if sig == nil || rec.Sender != lastAddr {
					var have bool
					sig, have = sigs[rec.Sender]
					if !have {
						sig = NewSignature(cfg.Param, cfg.Bins)
						sigs[rec.Sender] = sig
					}
					lastAddr, lastSig = rec.Sender, sig
				}
				sig.Add(rec.Class, v)
			}
		}
		prevT = rec.T
	}
	for addr, sig := range sigs {
		if sig.Observations() < uint64(cfg.MinObservations) {
			delete(sigs, addr)
		}
	}
	return sigs
}

// ExtractOne builds the signature of a single sender, regardless of the
// minimum-observation rule (callers decide). Used by the figure
// reproductions and the examples.
func ExtractOne(tr *capture.Trace, sender dot11.Addr, cfg Config) *Signature {
	return ExtractOneFiltered(tr, sender, cfg, nil)
}

// ExtractOneFiltered is ExtractOne with an additional record filter:
// only frames for which keep returns true contribute observations. The
// inter-arrival context still advances over every frame, matching the
// paper's figure methodology ("only data frames transmitted the first
// time and sent at 54 Mbps are shown", Fig. 4).
func ExtractOneFiltered(tr *capture.Trace, sender dot11.Addr, cfg Config, keep func(*capture.Record) bool) *Signature {
	cfg = cfg.withDefaults()
	sig := NewSignature(cfg.Param, cfg.Bins)
	var prevT int64 = -1
	for i := range tr.Records {
		rec := &tr.Records[i]
		if rec.Sender == sender && (rec.FCSOK || cfg.KeepBadFCS) && (keep == nil || keep(rec)) {
			if v, ok := cfg.Param.Value(rec, prevT); ok {
				sig.Add(rec.Class, v)
			}
		}
		prevT = rec.T
	}
	return sig
}
