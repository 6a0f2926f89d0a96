package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
)

// verdict is what the correctness gate compares of one verdict event:
// its window, its sender, the best reference and that score's exact
// bits.
type verdict struct {
	window  int
	addr    dot11.Addr
	matched bool
	hasBest bool
	best    dot11.Addr
	sim     float64
}

// verdictOf extracts the verdict of a CandidateMatched or UnknownDevice
// event; other events report false.
func verdictOf(ev engine.Event) (verdict, bool) {
	switch ev := ev.(type) {
	case engine.CandidateMatched:
		return verdict{window: ev.Window, addr: ev.Addr, matched: true, hasBest: true, best: ev.Best.Addr, sim: ev.Best.Sim}, true
	case engine.UnknownDevice:
		v := verdict{window: ev.Window, addr: ev.Addr, hasBest: ev.HasBest}
		if ev.HasBest {
			v.best, v.sim = ev.Best.Addr, ev.Best.Sim
		}
		return v, true
	}
	return verdict{}, false
}

// digest folds an ordered verdict stream into a 64-bit FNV-1a hash; two
// streams agree when both the hash and the count do.
type digest struct {
	sum uint64
	n   int
}

func newDigest() digest { return digest{sum: 14695981039346656037} }

func (d *digest) add(v verdict) {
	var b [30]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(v.window))
	copy(b[8:], v.addr[:])
	copy(b[14:], v.best[:])
	binary.LittleEndian.PutUint64(b[20:], math.Float64bits(v.sim))
	if v.matched {
		b[28] = 1
	}
	if v.hasBest {
		b[29] = 1
	}
	for _, c := range b {
		d.sum ^= uint64(c)
		d.sum *= 1099511628211
	}
	d.n++
}

var (
	eventPrefix = []byte("event: ")
	dataPrefix  = []byte("data: ")
)

// feedParser decodes the verdicts of the site's server-sent-events
// feed, one line at a time.
type feedParser struct {
	event  string
	frames int
}

// line consumes one line (with or without its newline) and returns the
// verdict it completes, if any.
func (p *feedParser) line(l []byte) (verdict, bool, error) {
	l = bytes.TrimSuffix(l, []byte("\n"))
	switch {
	case len(l) == 0:
		p.frames++
	case bytes.HasPrefix(l, eventPrefix):
		p.event = string(l[len(eventPrefix):])
	case bytes.HasPrefix(l, dataPrefix):
		return sseVerdict(p.event, l[len(dataPrefix):])
	}
	return verdict{}, false, nil
}

// sseVerdict decodes the verdict carried by the data of one feed frame
// (event "matched" or "unknown"); other events report false. The feed
// encodes scores with encoding/json, whose float formatting round-trips
// exactly, so a decoded verdict digests like the engine's own.
func sseVerdict(event string, data []byte) (verdict, bool, error) {
	if event != "matched" && event != "unknown" {
		return verdict{}, false, nil
	}
	var p struct {
		Window int     `json:"window"`
		Addr   string  `json:"addr"`
		Best   string  `json:"best"`
		Sim    float64 `json:"sim"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return verdict{}, false, fmt.Errorf("feed %s frame: %w", event, err)
	}
	v := verdict{window: p.Window, matched: event == "matched"}
	var err error
	if v.addr, err = dot11.ParseAddr(p.Addr); err != nil {
		return verdict{}, false, fmt.Errorf("feed %s frame: %w", event, err)
	}
	if p.Best != "" {
		if v.best, err = dot11.ParseAddr(p.Best); err != nil {
			return verdict{}, false, fmt.Errorf("feed %s frame: %w", event, err)
		}
		v.hasBest, v.sim = true, p.Sim
	}
	return v, true, nil
}
