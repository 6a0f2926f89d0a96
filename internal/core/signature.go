package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// Signature is a device signature per Definition 1: one
// percentage-frequency histogram per frame type, each weighted by the
// frame type's share of the device's observations.
//
// Each present frame class keeps its counts in one classRow, found
// through a per-class slot index: the first inline, any further ones in
// one slice, so a window signature costs the bins its sender fills.
type Signature struct {
	param Param
	slot  [dot11.NumClasses]uint8 // per class: 0 absent, 1 first, k > 1 more[k-2]
	nrows uint8
	bins  BinSpec
	total uint64
	first classRow
	more  []classRow
}

// classRow is one frame class's counts: in cell form one cell per
// non-zero bin, bin<<cellShift | count, in ascending bin order; in dense
// form one count per bin. Writes keep a row in cell form up to
// cellCutoff cells and turn it dense past that. A loaded reference's
// rows stay cells while they fill at most half the bins.
type classRow struct {
	counts         []uint64
	total, dropped uint64
	form           rowForm
}

// rowForm is a classRow's layout: owned cells, cells shared with a
// load's chunks and its clones (copied before a write), or dense.
type rowForm uint8

const (
	rowCells rowForm = iota
	rowShared
	rowDense
)

// A cell holds a count up to cellMax and a bin below maxCellBins; a
// larger count, or a wider shape, takes the dense form.
const (
	cellShift   = 44
	cellMax     = 1<<cellShift - 1
	maxCellBins = 1 << (64 - cellShift)
	cellCutoff  = 64 // EXPERIMENTS.md, "Sparse window signatures"
)

// cell returns the bin and count of the row's k-th entry.
func (r *classRow) cell(k int) (int, uint64) {
	c := r.counts[k]
	if r.form == rowDense {
		return k, c
	}
	return int(c >> cellShift), c & cellMax
}

// at is cell, with bin math.MaxInt and count 0 past the row's end.
func (r *classRow) at(k int) (int, uint64) {
	if k < len(r.counts) {
		return r.cell(k)
	}
	return math.MaxInt, 0
}

// dense returns a fresh dense copy of the row's counts.
func (r *classRow) dense(bins int) []uint64 {
	if r.form == rowDense {
		return slices.Clone(r.counts)
	}
	out := make([]uint64, bins) //fp:allocok a row turns dense once, past cellCutoff cells
	for _, c := range r.counts {
		out[c>>cellShift] = c & cellMax
	}
	return out
}

// norm returns the Euclidean norm of the row's counts, summed in
// ascending bin order: the zeros a cell row skips would add exact +0s,
// so both forms give histogram.CountNorm's bits.
func (r *classRow) norm() float64 {
	var n float64
	for k := range r.counts {
		_, c := r.cell(k)
		n += float64(c) * float64(c)
	}
	return math.Sqrt(n)
}

// put adds n ≥ 1 observations to bin j, drawing grown cell buffers
// from pool and handing outgrown ones back (a nil pool: the heap).
func (r *classRow) put(j int, n uint64, bins int, pool *cellPool) {
	if r.form == rowShared {
		if len(r.counts) > cellCutoff {
			r.counts, r.form = r.dense(bins), rowDense
		} else {
			r.counts, r.form = slices.Clone(r.counts), rowCells //fp:allocok once per loaded row, on its first write
		}
	}
	r.total += n
	if r.form == rowCells {
		cells, key := r.counts, uint64(j)<<cellShift
		i, _ := slices.BinarySearch(cells, key)
		switch {
		case i < len(cells) && cells[i]>>cellShift == uint64(j):
			if n <= cellMax-cells[i]&cellMax {
				cells[i] += n
				return
			}
		case len(cells) < cellCutoff && n <= cellMax:
			if len(cells) == cap(cells) {
				grown := pool.get(max(2*cap(cells), 4))[:len(cells)]
				copy(grown, cells)
				pool.put(cells)
				cells = grown
			}
			cells = cells[:len(cells)+1]
			copy(cells[i+1:], cells[i:])
			cells[i] = key | n
			r.counts = cells
			return
		}
		cells = r.dense(bins)
		pool.put(r.counts)
		r.counts, r.form = cells, rowDense
	}
	r.counts[j] += n
}

// reserve makes room for n more cells in at most one allocation: a row
// that could pass cellCutoff turns dense at once.
func (r *classRow) reserve(n, bins int) {
	switch {
	case r.form == rowDense:
	case len(r.counts)+n > cellCutoff:
		r.counts, r.form = r.dense(bins), rowDense
	case len(r.counts)+n > cap(r.counts):
		r.counts, r.form = append(make([]uint64, 0, len(r.counts)+n), r.counts...), rowCells
	}
}

// cellPool recycles a sender table's cell buffers of 4 to cellCutoff
// cells, outgrown or released with a dropped or evicted sender, so a
// table allocates for the rows it hands off, not for every doubling.
type cellPool [5][][]uint64

func (p *cellPool) get(c int) []uint64 {
	if p != nil {
		if f := &p[bits.Len(uint(c))-3]; len(*f) > 0 {
			b := (*f)[len(*f)-1]
			*f = (*f)[:len(*f)-1]
			return b[:0]
		}
	}
	return make([]uint64, 0, c) //fp:allocok cells double up to cellCutoff; a table recycles them
}

// put takes b back unless it is not one of get's buffers.
func (p *cellPool) put(b []uint64) {
	if c := cap(b); p != nil && c >= 4 && c <= cellCutoff && c&(c-1) == 0 {
		f := &p[bits.Len(uint(c))-3]
		*f = append(*f, b) //fp:allocok the free lists grow to a window's peak and are kept
	}
}

// release hands the signature's owned cell buffers back to pool; the
// signature must not be used afterwards.
func (s *Signature) release(pool *cellPool) {
	for c := range s.slot {
		if r := s.row(dot11.Class(c)); r != nil && r.form == rowCells {
			pool.put(r.counts)
		}
	}
}

// NewSignature creates an empty signature for a parameter and bin shape.
func NewSignature(param Param, bins BinSpec) *Signature {
	return &Signature{param: param, bins: bins}
}

// Param returns the parameter the signature is built from.
func (s *Signature) Param() Param { return s.param }

// Add records one observation for a frame class, applying the bin
// spec's scale transform and histogram.Histogram's binning: negative and
// NaN values are dropped, values past the top edge fold into the last bin.
func (s *Signature) Add(class dot11.Class, v float64) { s.add(class, v, nil) }

// add is Add drawing cell buffers from a sender table's pool.
func (s *Signature) add(class dot11.Class, v float64, pool *cellPool) {
	r := s.row(class)
	if r == nil {
		r = s.addRow(class)
	}
	v = s.bins.Transform(v)
	if v < 0 || math.IsNaN(v) {
		r.dropped++
		return
	}
	j := s.bins.Bins - 1 // values past the top edge fold into the top bin
	if q := v / s.bins.Width; !(q >= float64(s.bins.Bins)) {
		j = int(q)
	}
	s.total++
	if r.form == rowDense {
		r.counts[j]++
		r.total++
		return
	}
	r.put(j, 1, s.bins.Bins, pool)
}

// row returns a class's row, or nil when the class is absent.
func (s *Signature) row(class dot11.Class) *classRow {
	if int(class) >= len(s.slot) {
		return nil
	}
	switch k := s.slot[class]; k {
	case 0:
		return nil
	case 1:
		return &s.first
	default:
		return &s.more[k-2]
	}
}

// addRow makes an empty row for a class the signature does not carry.
//
//fp:coldpath runs once per class per sender
func (s *Signature) addRow(class dot11.Class) *classRow {
	if s.bins.Bins <= 0 || !(s.bins.Width > 0) {
		panic(fmt.Sprintf("core: invalid histogram shape %d×%v", s.bins.Bins, s.bins.Width))
	}
	s.nrows++
	s.slot[class] = s.nrows
	r := &s.first
	if s.nrows > 1 {
		if s.more == nil {
			s.more = make([]classRow, 0, 4)
		}
		s.more = append(s.more, classRow{})
		r = &s.more[len(s.more)-1]
	}
	if s.bins.Bins > maxCellBins {
		r.counts, r.form = make([]uint64, s.bins.Bins), rowDense
	}
	return r
}

// setRow installs a decoded row for a class the signature does not yet
// carry; the persistence loaders validate class and shape first.
func (s *Signature) setRow(class dot11.Class, r classRow) {
	*s.addRow(class) = r
	s.total += r.total
}

// Observations returns the total observation count |P(s)| across frame
// types — the quantity the ≥50-observation rule applies to (§V-C).
func (s *Signature) Observations() uint64 { return s.total }

// Classes returns the frame classes present, in stable order.
func (s *Signature) Classes() []dot11.Class {
	out := make([]dot11.Class, 0, s.nrows)
	for c, k := range s.slot {
		if k != 0 {
			out = append(out, dot11.Class(c))
		}
	}
	return out
}

// Hist returns a fresh dense copy of a class's histogram, or nil if the
// class is absent: writing to it does not change the signature.
func (s *Signature) Hist(class dot11.Class) *histogram.Histogram {
	r := s.row(class)
	if r == nil {
		return nil
	}
	h, _ := histogram.FromSnapshot(histogram.Snapshot{BinWidth: s.bins.Width, Counts: r.dense(s.bins.Bins), Dropped: r.dropped})
	return &h
}

// Weight returns weight_ftype = |P^ftype| / Σ|P^ftype| (Definition 1).
func (s *Signature) Weight(class dot11.Class) float64 {
	r := s.row(class)
	if r == nil || s.total == 0 {
		return 0
	}
	return float64(r.total) / float64(s.total)
}

// Clone returns a deep copy of the signature. Used by the online
// trainer to snapshot enrollment state without aliasing live counts;
// shared rows are never written, so the copy shares them.
func (s *Signature) Clone() *Signature {
	c := *s
	c.first = s.first.clone()
	c.more = slices.Clone(s.more)
	for i := range c.more {
		c.more[i] = c.more[i].clone()
	}
	return &c
}

// clone returns the row with its own copy of counts it does not share.
func (r classRow) clone() classRow {
	if r.form != rowShared {
		r.counts = slices.Clone(r.counts)
	}
	return r
}

// Merge folds other into s (same parameter and bin shape required),
// walking other's non-zero cells. Used to extend reference signatures
// with additional training windows.
func (s *Signature) Merge(other *Signature) error {
	if other == nil {
		return nil
	}
	if s.param != other.param || s.bins != other.bins {
		return fmt.Errorf("core: signature shape mismatch: %v/%v vs %v/%v",
			s.param, s.bins, other.param, other.bins)
	}
	if other == s {
		other = s.Clone() // its rows would change under the walk
	}
	for c := range other.slot {
		o := other.row(dot11.Class(c))
		if o == nil {
			continue
		}
		s.total += o.total
		r := s.row(dot11.Class(c))
		if r == nil {
			*s.addRow(dot11.Class(c)) = o.clone()
			continue
		}
		r.dropped += o.dropped
		r.reserve(len(o.counts), s.bins.Bins)
		for k := range o.counts {
			if j, n := o.cell(k); n != 0 {
				r.put(j, n, s.bins.Bins, nil)
			}
		}
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
