package core

import (
	"time"

	"dot11fp/internal/capture"
)

// DefaultWindow is the paper's detection window size (§V-A).
const DefaultWindow = 5 * time.Minute

// Split divides a trace into the training prefix (the reference trace)
// and the validation remainder, at refDur from the trace start. The cut
// is anchored at the first record's timestamp, not at absolute zero, so
// traces carrying wall-clock timestamps (every real pcap) split exactly
// like ones rebased to zero.
func Split(tr *capture.Trace, refDur time.Duration) (train, validation *capture.Trace) {
	cut := refDur.Microseconds()
	if len(tr.Records) > 0 {
		cut += tr.Records[0].T
	}
	return tr.Slice(-1<<62, cut), tr.Slice(cut, 1<<62)
}

// Candidate is one device observed in one detection window.
type Candidate struct {
	Addr   [6]byte // dot11.Addr; kept comparable for map keys
	Window int
	Sig    *Signature
}

// CandidatesIn extracts the candidate signatures of every detection
// window (the matching unit of §V-A: every candidate device is matched
// against the reference database for each detection window).
//
// It is a thin batch adapter over WindowAccumulator — the single
// extraction code path shared with the streaming engine. The trace is
// scanned in one pass; output is identical to windowing first: window
// indices count non-empty windows in time order, the inter-arrival
// context resets at each window boundary (mirroring per-window
// extraction), and candidates within a window are emitted in ascending
// address order after the minimum-observation rule.
func CandidatesIn(validation *capture.Trace, window time.Duration, cfg Config) []Candidate {
	var out []Candidate
	acc := NewWindowAccumulator(window, cfg, func(w *WindowResult) {
		out = append(out, w.Candidates...)
	})
	for i := range validation.Records {
		acc.Push(&validation.Records[i])
	}
	acc.Flush()
	return out
}
