package histogram

import "fmt"

// Snapshot is the portable, serialisable form of a Histogram, used when
// reference databases are written to or loaded from disk.
type Snapshot struct {
	BinWidth float64  `json:"bin_width"`
	Counts   []uint64 `json:"counts"`
	Dropped  uint64   `json:"dropped,omitempty"`
}

// Snapshot exports the histogram's state.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{BinWidth: h.binWidth, Counts: h.Counts(), Dropped: h.dropped}
}

// FromSnapshot reconstructs a histogram. The snapshot is validated
// because it typically crosses a trust boundary (files on disk).
//
// The histogram adopts s.Counts rather than copying it: the caller
// hands the slice over and must not touch it afterwards. Both loaders
// decode every snapshot into a fresh slice, so adopting saves a second
// allocation and copy of every count at load time. Like Init, it works
// in value terms, so the result can be stored in an inline slot (as
// Signature does) without a Histogram allocation either.
func FromSnapshot(s Snapshot) (Histogram, error) {
	if s.BinWidth <= 0 || len(s.Counts) == 0 {
		return Histogram{}, fmt.Errorf("histogram: invalid snapshot shape %d×%v", len(s.Counts), s.BinWidth)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	return Histogram{binWidth: s.BinWidth, counts: s.Counts, total: total, dropped: s.Dropped}, nil
}
