package server

import (
	"testing"

	"dot11fp"
)

// TestRecorderCopiesScores pins the verdict cache's ownership of its
// score rows. A window's verdict rows are subslices of one shared
// backing; a cache entry that kept its row would keep the whole backing
// — every other candidate's row of that window — alive for as long as
// the sender stays cached. After events from several windows, every
// entry must hold a row of its own: capacity equal to length, and
// unaffected when the window's backing is overwritten.
func TestRecorderCopiesScores(t *testing.T) {
	const (
		windows = 3
		senders = 4
		k       = 5
	)
	r := newRecorder(64)
	backings := make([][]dot11fp.Score, windows)
	for w := range backings {
		backing := make([]dot11fp.Score, senders*k)
		for i := range backing {
			backing[i] = dot11fp.Score{Addr: dot11fp.Addr{0x02, byte(w), byte(i)}, Sim: float64(w*100 + i)}
		}
		backings[w] = backing
		for s := 0; s < senders; s++ {
			addr := dot11fp.Addr{0x02, 0xaa, byte(w), byte(s)}
			row := backing[s*k : (s+1)*k]
			if s%2 == 0 {
				r.observe(dot11fp.CandidateMatched{Window: w, Addr: addr, Scores: row, Best: row[0]})
			} else {
				r.observe(dot11fp.UnknownDevice{Window: w, Addr: addr, Scores: row, Best: row[0], HasBest: true})
			}
		}
		r.observe(dot11fp.WindowClosed{Window: w})
	}
	for _, backing := range backings {
		for i := range backing {
			backing[i].Sim = -1
		}
	}
	if len(r.last) != windows*senders {
		t.Fatalf("%d cached senders, want %d", len(r.last), windows*senders)
	}
	for addr, e := range r.last {
		if len(e.scores) != k || cap(e.scores) != len(e.scores) {
			t.Fatalf("sender %v: scores len %d cap %d, want a row of its own (len = cap = %d)", addr, len(e.scores), cap(e.scores), k)
		}
		w, s := int(addr[2]), int(addr[3])
		for j, sc := range e.scores {
			if want := float64(w*100 + s*k + j); sc.Sim != want {
				t.Fatalf("sender %v score %d: %v, want %v (the cache aliases the window backing)", addr, j, sc.Sim, want)
			}
		}
	}
}
