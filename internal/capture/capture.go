// Package capture models the paper's monitoring device: a standard
// wireless card in monitor mode on a fixed channel, producing one
// timestamped record per received frame.
//
// A Record carries exactly the information the paper extracts from the
// Radiotap/Prism header plus the MAC header fields needed for sender
// attribution (Figure 1): end-of-reception time, rate, on-air size,
// frame class, transmitter address when the frame type carries one, and
// the retry/FCS flags. Traces can be exported to and re-imported from
// standard pcap files with radiotap link type, byte-compatible with
// real-world captures.
package capture

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"dot11fp/internal/dot11"
	"dot11fp/internal/pcap"
	"dot11fp/internal/prism"
	"dot11fp/internal/radiotap"
)

// Record is one observed frame.
type Record struct {
	// T is the end-of-reception timestamp in µs since trace start —
	// the paper's t_i.
	T int64
	// Sender is the transmitter address, or the zero address for frame
	// types that carry none (ACK, CTS): those records still contribute
	// to inter-arrival context but are never attributed to a device.
	Sender dot11.Addr
	// Receiver is the receiver address (RA).
	Receiver dot11.Addr
	// Class is the fingerprinting frame class.
	Class dot11.Class
	// Size is the on-air MPDU size in bytes including header and FCS —
	// the paper's size_i.
	Size int
	// RateMbps is the transmission rate the monitor's PHY reported —
	// the paper's rate_i.
	RateMbps float64
	// Retry reports the retransmission bit.
	Retry bool
	// FCSOK reports whether the frame passed its checksum. Corrupt
	// frames are recorded (real monitors log them) but excluded from
	// signatures.
	FCSOK bool
	// SignalDBm is the received signal strength.
	SignalDBm int8
	// Protected reports the frame-body encryption bit.
	Protected bool
	// ProbeIEs is the raw information-element list of a probe request
	// body — the address-independent content the probe-content
	// parameters and the MAC-randomization clusterer fingerprint. It is
	// nil for every other class and for probe requests captured without
	// a body. Producers must store a stable slice (never one aliasing a
	// recycled decode buffer): records outlive the next read.
	ProbeIEs []byte
}

// Equal reports whether two records carry identical observations,
// comparing probe content by value. (Record itself is not
// ==-comparable: ProbeIEs is a slice.)
func (r Record) Equal(o Record) bool {
	return r.T == o.T && r.Sender == o.Sender && r.Receiver == o.Receiver &&
		r.Class == o.Class && r.Size == o.Size && r.RateMbps == o.RateMbps &&
		r.Retry == o.Retry && r.FCSOK == o.FCSOK && r.SignalDBm == o.SignalDBm &&
		r.Protected == o.Protected && bytes.Equal(r.ProbeIEs, o.ProbeIEs)
}

// Trace is an ordered sequence of records from one monitoring session.
type Trace struct {
	// Name labels the trace (e.g. "office 1").
	Name string
	// Base is the wall-clock time of T=0.
	Base time.Time
	// Channel is the monitored 2.4 GHz channel number.
	Channel int
	// Encrypted notes whether the network was WPA-protected.
	Encrypted bool
	// Records are ordered by strictly non-decreasing T.
	Records []Record
}

// Duration returns the time span covered by the trace.
func (tr *Trace) Duration() time.Duration {
	if len(tr.Records) == 0 {
		return 0
	}
	return time.Duration(tr.Records[len(tr.Records)-1].T) * time.Microsecond
}

// Senders returns the set of distinct non-zero senders in the trace.
func (tr *Trace) Senders() map[dot11.Addr]int {
	out := make(map[dot11.Addr]int)
	for i := range tr.Records {
		if s := tr.Records[i].Sender; !s.IsZero() {
			out[s]++
		}
	}
	return out
}

// Slice returns the sub-trace with T in [from, to) µs. The returned
// trace shares the underlying record storage.
func (tr *Trace) Slice(from, to int64) *Trace {
	lo, hi := 0, len(tr.Records)
	for lo < hi && tr.Records[lo].T < from {
		lo++
	}
	j := lo
	for j < hi && tr.Records[j].T < to {
		j++
	}
	return &Trace{
		Name: tr.Name, Base: tr.Base, Channel: tr.Channel,
		Encrypted: tr.Encrypted, Records: tr.Records[lo:j],
	}
}

// snapBody caps the payload bytes written per packet; headers and sizes
// are preserved via OrigLen, mirroring truncating monitors.
const snapBody = 64

// ErrLinkType reports an unsupported pcap link type on import.
var ErrLinkType = errors.New("capture: unsupported pcap link type")

// WritePcap serialises the trace as a standard radiotap pcap stream.
// Frame bodies are zero-filled and truncated (size information is kept
// in the record length fields), exactly like a snaplen-limited capture —
// except probe-request content (Record.ProbeIEs), which is written
// verbatim so content fingerprints survive the round trip.
func WritePcap(w io.Writer, tr *Trace) error {
	return WritePcapLinkType(w, tr, pcap.LinkTypeRadiotap)
}

// WritePcapLinkType serialises the trace with the chosen capture-header
// format: pcap.LinkTypeRadiotap or pcap.LinkTypePrism (the AVS header) —
// the two formats the paper's method reads.
func WritePcapLinkType(w io.Writer, tr *Trace, linkType uint32) error {
	if linkType != pcap.LinkTypeRadiotap && linkType != pcap.LinkTypePrism {
		return fmt.Errorf("%w: %d", ErrLinkType, linkType)
	}
	pw := pcap.NewWriter(w, linkType)
	for i := range tr.Records {
		rec := &tr.Records[i]
		var meta []byte
		if linkType == pcap.LinkTypeRadiotap {
			meta = radiotapFor(tr, rec)
		} else {
			if !rec.FCSOK {
				// The AVS header carries no FCS-validity flag; drivers in
				// this mode discard corrupt frames, and so do we.
				continue
			}
			meta = prismFor(tr, rec)
		}
		frame := frameFor(rec)
		raw := frame.Encode()
		if len(raw) > snapBody+34 { // keep headers + a little body
			raw = raw[:snapBody+34]
		}
		data := append(meta, raw...)
		p := pcap.Packet{
			Time:    tr.Base.Add(time.Duration(rec.T) * time.Microsecond),
			Data:    data,
			OrigLen: len(data) - len(raw) + rec.Size,
		}
		if err := pw.WritePacket(p); err != nil {
			return fmt.Errorf("capture: packet %d: %w", i, err)
		}
	}
	return pw.Flush()
}

// radiotapFor builds the radiotap metadata bytes for a record.
func radiotapFor(tr *Trace, rec *Record) []byte {
	rt := radiotap.Header{
		TSFT: uint64(rec.T), HasTSFT: true,
		HasFlags:     true,
		ChannelFreq:  radiotap.Freq2GHz(tr.Channel),
		ChannelFlags: radiotap.Chan2GHz | chanModeFlag(rec.RateMbps),
		HasChannel:   true,
		AntSignal:    rec.SignalDBm,
		HasAntSignal: true,
	}
	rt.SetRateMbps(rec.RateMbps)
	rt.Flags = radiotap.FlagFCS
	if !rec.FCSOK {
		rt.Flags |= radiotap.FlagBadFCS
	}
	return rt.Encode()
}

// prismFor builds the AVS metadata bytes for a record. The AVS header
// carries no FCS-validity flag, so corrupt frames keep their (broken)
// trailing checksum and are detected on import.
func prismFor(tr *Trace, rec *Record) []byte {
	ph := prism.Header{
		MACTime:   uint64(rec.T),
		Channel:   uint32(tr.Channel),
		SSIType:   prism.SSITypeDBm,
		SSISignal: int32(rec.SignalDBm),
		PhyType:   prism.PhyTypeOFDM,
	}
	if isCCKRate(rec.RateMbps) {
		ph.PhyType = prism.PhyTypeDSSS
	}
	ph.SetRateMbps(rec.RateMbps)
	return ph.Encode()
}

// isCCKRate mirrors chanModeFlag's rate classification.
func isCCKRate(rate float64) bool {
	switch rate {
	case 1, 2, 5.5, 11:
		return true
	default:
		return false
	}
}

// chanModeFlag picks the radiotap channel-mode flag for a rate.
func chanModeFlag(rate float64) uint16 {
	switch rate {
	case 1, 2, 5.5, 11:
		return radiotap.ChanCCK
	default:
		return radiotap.ChanOFDM
	}
}

// frameFor synthesises a plausible 802.11 frame for a record. The body
// length is chosen so the encoded MPDU matches rec.Size (floored at the
// header size when rec.Size is smaller).
func frameFor(rec *Record) dot11.Frame {
	var f dot11.Frame
	f.FC.Type, f.FC.Subtype = classWire(rec.Class)
	f.FC.Retry = rec.Retry
	f.FC.Protected = rec.Protected && f.FC.Type == dot11.TypeData
	f.Addr1 = rec.Receiver
	if f.HasTA() {
		f.Addr2 = rec.Sender
		f.Addr3 = rec.Receiver
	}
	if f.FC.Type == dot11.TypeData {
		f.FC.ToDS = true
	}
	if rec.Class == dot11.ClassProbeReq && len(rec.ProbeIEs) > 0 {
		// Probe-request content round-trips verbatim and is never
		// zero-padded: padding would parse as a run of empty SSID
		// elements and corrupt the content fingerprint. The on-air size
		// is preserved via OrigLen regardless of the body length.
		f.Body = rec.ProbeIEs
		return f
	}
	if pad := rec.Size - f.Size(); pad > 0 {
		f.Body = make([]byte, pad)
	}
	return f
}

// classWire maps a fingerprint class back to a representative
// type/subtype pair for serialisation.
func classWire(c dot11.Class) (dot11.Type, dot11.Subtype) {
	switch c {
	case dot11.ClassData:
		return dot11.TypeData, dot11.SubtypeData
	case dot11.ClassQoSData:
		return dot11.TypeData, dot11.SubtypeQoSData
	case dot11.ClassNull:
		return dot11.TypeData, dot11.SubtypeNull
	case dot11.ClassBeacon:
		return dot11.TypeManagement, dot11.SubtypeBeacon
	case dot11.ClassProbeReq:
		return dot11.TypeManagement, dot11.SubtypeProbeReq
	case dot11.ClassProbeResp:
		return dot11.TypeManagement, dot11.SubtypeProbeResp
	case dot11.ClassMgmtOther:
		return dot11.TypeManagement, dot11.SubtypeAuth
	case dot11.ClassRTS:
		return dot11.TypeControl, dot11.SubtypeRTS
	case dot11.ClassCTS:
		return dot11.TypeControl, dot11.SubtypeCTS
	case dot11.ClassACK:
		return dot11.TypeControl, dot11.SubtypeACK
	case dot11.ClassPSPoll:
		return dot11.TypeControl, dot11.SubtypePSPoll
	default:
		return dot11.TypeControl, dot11.SubtypeCFEnd
	}
}

// ReadPcap parses a radiotap or AVS/Prism pcap stream back into a
// Trace. Frames whose capture or 802.11 headers do not parse are
// skipped (standard monitor behaviour is to tolerate noise), but a
// stream-level error aborts.
//
// It is a batch adapter over StreamReader — the single decoding code
// path — and materialises every record; streaming consumers (the
// engine) should iterate StreamReader.Next instead.
func ReadPcap(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Records = append(tr.Records, rec)
	}
	tr.Base = sr.Base()
	tr.Channel = sr.Channel()
	tr.Encrypted = sr.Encrypted()
	return tr, nil
}

// StreamReader yields the records of a radiotap or AVS/Prism pcap
// stream one at a time, without materialising the trace — O(1) memory
// for arbitrarily long captures, the input path of the streaming
// engine. The packet buffer is recycled across records, so the steady
// state allocates nothing per frame except a probe request's ProbeIEs
// copy (TestStreamReaderNextZeroAllocs).
//
// Decoding reads only what a Record needs, with straight loads: the
// pcap reader copies each record out of its buffered window, a
// radiotap.Decoder caches the capture's field layout, and
// dot11.DecodeHeader reads the MAC header through a frame-control
// table. The results are those of the package-level decoders
// (radiotap.Decode, dot11.Decode), which FuzzStreamReader keeps as its
// reference.
//
// Records stream in capture order; frames whose capture or 802.11
// headers do not parse are skipped, exactly like ReadPcap (which is a
// batch adapter over this type).
type StreamReader struct {
	pr        *pcap.Reader
	isPrism   bool
	rt        radiotap.Decoder
	buf       []byte
	first     bool
	base      time.Time
	channel   int
	encrypted bool
	skipped   atomic.Uint64
}

// NewStreamReader parses the pcap file header and returns a reader
// positioned at the first record. Only the two monitor-metadata link
// types the paper's method reads are accepted.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	switch pr.LinkType() {
	case pcap.LinkTypeRadiotap, pcap.LinkTypePrism:
	default:
		return nil, fmt.Errorf("%w: %d", ErrLinkType, pr.LinkType())
	}
	return &StreamReader{
		pr:      pr,
		isPrism: pr.LinkType() == pcap.LinkTypePrism,
		first:   true,
	}, nil
}

// Next returns the next decodable record, or io.EOF at clean end of
// stream. The record is self-contained (no aliasing of reader state).
func (s *StreamReader) Next() (Record, error) {
	for {
		p, err := s.pr.NextInto(s.buf)
		if err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			return Record{}, err
		}
		s.buf = p.Data[:cap(p.Data)] // recycle the packet buffer
		var meta captureMeta
		var n int
		if s.isPrism {
			ph, hn, err := prism.Decode(p.Data)
			if err != nil {
				s.skipped.Add(1)
				continue
			}
			n = hn
			meta = captureMeta{
				hasTime: true, timeUs: ph.MACTime,
				rate:    ph.RateMbps(),
				channel: int(ph.Channel),
				fcsOK:   true, // corrupt frames never reach an AVS capture
				hasSig:  ph.SSIType == prism.SSITypeDBm, sig: int8(ph.SSISignal),
			}
		} else {
			rt, hn, err := s.rt.Decode(p.Data)
			if err != nil {
				s.skipped.Add(1)
				continue
			}
			n = hn
			meta = captureMeta{
				hasTime: rt.HasTSFT, timeUs: rt.TSFT,
				rate:    rt.RateMbps(),
				channel: channelOf(rt.ChannelFreq),
				fcsOK:   !rt.HasFlags || rt.Flags&radiotap.FlagBadFCS == 0,
				hasSig:  rt.HasAntSignal, sig: rt.AntSignal,
			}
		}
		var hdr dot11.Header
		if !dot11.DecodeHeader(p.Data[n:], &hdr) {
			s.skipped.Add(1)
			continue
		}
		if s.first {
			s.base = p.Time
			if meta.hasTime {
				s.base = p.Time.Add(-time.Duration(meta.timeUs) * time.Microsecond)
			}
			s.channel = meta.channel
			s.first = false
		}
		var t int64
		if meta.hasTime {
			t = int64(meta.timeUs)
		} else {
			t = p.Time.Sub(s.base).Microseconds()
		}
		rec := Record{
			T:         t,
			Sender:    hdr.TA,
			Receiver:  hdr.RA,
			Class:     hdr.Class,
			Size:      p.OrigLen - n,
			RateMbps:  meta.rate,
			Retry:     hdr.Retry,
			FCSOK:     meta.fcsOK,
			Protected: hdr.Protected,
		}
		if meta.hasSig {
			rec.SignalDBm = meta.sig
		}
		// Copy-on-retain: hdr.Body aliases the recycled packet buffer,
		// and the record outlives the next NextInto call. Probe-request
		// content is the one body downstream keeps, so it is the one
		// body that must be copied out of the buffer here.
		if rec.Class == dot11.ClassProbeReq && len(hdr.Body) > 0 {
			rec.ProbeIEs = append([]byte(nil), hdr.Body...)
		}
		if rec.Protected {
			s.encrypted = true
		}
		return rec, nil
	}
}

// Base returns the wall-clock time of T=0, known once the first record
// has been decoded.
func (s *StreamReader) Base() time.Time { return s.base }

// Channel returns the monitored channel, known once the first record
// has been decoded (0 if the capture metadata carries none).
func (s *StreamReader) Channel() int { return s.channel }

// Encrypted reports whether any record decoded so far had the
// protected bit set.
func (s *StreamReader) Encrypted() bool { return s.encrypted }

// Skipped reports how many records were consumed as decode failures
// (capture metadata or 802.11 header that did not parse) — the
// skip-and-count counter MultiStream's per-source circuit breaker and
// stats read. Safe from any goroutine.
func (s *StreamReader) Skipped() uint64 { return s.skipped.Load() }

// captureMeta is the link-type-independent view of capture metadata.
type captureMeta struct {
	hasTime bool
	timeUs  uint64
	rate    float64
	channel int
	fcsOK   bool
	hasSig  bool
	sig     int8
}

// channelOf inverts Freq2GHz for the 2.4 GHz band; unknown frequencies
// return 0.
func channelOf(freq uint16) int {
	if freq == 2484 {
		return 14
	}
	if freq >= 2412 && freq <= 2472 && (freq-2407)%5 == 0 {
		return int(freq-2407) / 5
	}
	return 0
}
