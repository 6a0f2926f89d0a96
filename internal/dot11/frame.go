// Package dot11 models IEEE 802.11 (1999/2007 era) MAC frames: frame
// control flags, addressing, wire-format encoding and decoding, FCS
// computation, and the frame-type classification used by the
// fingerprinting pipeline.
//
// The model covers exactly the frame families that matter to the paper's
// passive measurement method: data (including QoS and null-function
// power-save frames), management (beacons, probe requests/responses,
// association and authentication) and control (RTS, CTS, ACK, PS-Poll).
//
// Parsing is bit-identical by contract: the same frame bytes yield the
// same structures and fingerprints on every run.
//
//fp:deterministic
package dot11

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Header sizes in bytes.
const (
	hdrLenCTSACK = 10 // FC + Duration + RA
	hdrLenRTS    = 16 // FC + Duration + RA + TA
	hdrLenData   = 24 // three-address data/management header
	hdrLenQoS    = 26 // data header + QoS control
	fcsLen       = 4
	maxFrameBody = 2312 // 802.11-1999 maximum MSDU size
	// MaxFrameSize is the largest legal MPDU including header and FCS.
	MaxFrameSize = hdrLenQoS + maxFrameBody + fcsLen
)

// Frame is a decoded 802.11 MAC frame. Addr fields follow the standard
// layout: Addr1 is always the receiver address (RA); Addr2 is the
// transmitter address (TA) when present; Addr3 carries BSSID/DA/SA
// depending on the ToDS/FromDS combination.
type Frame struct {
	FC       FrameControl
	Duration uint16 // NAV duration in µs (or AID for PS-Poll)
	Addr1    Addr
	Addr2    Addr
	Addr3    Addr
	SeqCtl   uint16 // fragment number (4 bits) | sequence number (12 bits)
	QoSCtl   uint16 // present only for QoS data subtypes
	Body     []byte // frame body (possibly encrypted); nil for control frames
}

// Errors returned by Decode.
var (
	ErrShortFrame = errors.New("dot11: frame too short")
	ErrBadFCS     = errors.New("dot11: FCS check failed")
)

// SeqNum returns the 12-bit sequence number.
func (f Frame) SeqNum() uint16 { return f.SeqCtl >> 4 }

// SetSeqNum stores the 12-bit sequence number, preserving the fragment bits.
func (f *Frame) SetSeqNum(n uint16) { f.SeqCtl = f.SeqCtl&0xf | n<<4 }

// HasTA reports whether the frame carries a transmitter address.
// ACK and CTS control frames do not (IEEE 802.11 §7.2.1) — this is the
// reason the paper's monitoring method cannot attribute them to a sender.
func (f Frame) HasTA() bool {
	if f.FC.Type != TypeControl {
		return true
	}
	switch f.FC.Subtype {
	case SubtypeCTS, SubtypeACK, SubtypeCFEnd, SubtypeCFEndAck:
		return false
	default:
		return true
	}
}

// TA returns the transmitter address, or the zero address when the frame
// type carries none.
func (f Frame) TA() Addr {
	if !f.HasTA() {
		return ZeroAddr
	}
	return f.Addr2
}

// RA returns the receiver address.
func (f Frame) RA() Addr { return f.Addr1 }

// IsQoS reports whether the frame is a QoS data subtype with a QoS
// control field.
func (f Frame) IsQoS() bool {
	return f.FC.Type == TypeData && f.FC.Subtype >= SubtypeQoSData
}

// IsNullFunc reports whether the frame is a (QoS) null-function data
// frame. These frames carry no payload and typically signal power-save
// transitions; the paper uses them in §VI-D to isolate per-card
// power-management behaviour.
func (f Frame) IsNullFunc() bool {
	return f.FC.Type == TypeData &&
		(f.FC.Subtype == SubtypeNull || f.FC.Subtype == SubtypeQoSNull)
}

// IsBroadcastData reports whether this is a data frame addressed to a
// group address, the frame family Pang et al. use as an implicit
// identifier and the paper revisits in Figure 7.
func (f Frame) IsBroadcastData() bool {
	if f.FC.Type != TypeData {
		return false
	}
	// For ToDS frames the ultimate destination is Addr3.
	da := f.Addr1
	if f.FC.ToDS {
		da = f.Addr3
	}
	return da.IsGroup()
}

// headerLen returns the encoded MAC header length for the frame's type.
func (f Frame) headerLen() int {
	switch f.FC.Type {
	case TypeControl:
		switch f.FC.Subtype {
		case SubtypeCTS, SubtypeACK:
			return hdrLenCTSACK
		case SubtypeRTS, SubtypePSPoll, SubtypeBlockAckReq, SubtypeBlockAck:
			return hdrLenRTS
		default:
			return hdrLenRTS
		}
	case TypeData:
		if f.IsQoS() {
			return hdrLenQoS
		}
		return hdrLenData
	default:
		return hdrLenData
	}
}

// Size returns the full MPDU size in bytes (header + body + FCS) as it
// would appear on the air. This is the size_i the fingerprint pipeline
// measures.
func (f Frame) Size() int { return f.headerLen() + len(f.Body) + fcsLen }

// Encode serialises the frame to its wire format, appending the FCS.
// The returned slice is freshly allocated.
func (f Frame) Encode() []byte {
	n := f.headerLen()
	buf := make([]byte, n+len(f.Body)+fcsLen)
	binary.LittleEndian.PutUint16(buf[0:2], f.FC.Encode())
	binary.LittleEndian.PutUint16(buf[2:4], f.Duration)
	copy(buf[4:10], f.Addr1[:])
	if n >= hdrLenRTS {
		copy(buf[10:16], f.Addr2[:])
	}
	if n >= hdrLenData {
		copy(buf[16:22], f.Addr3[:])
		binary.LittleEndian.PutUint16(buf[22:24], f.SeqCtl)
	}
	if n >= hdrLenQoS {
		binary.LittleEndian.PutUint16(buf[24:26], f.QoSCtl)
	}
	copy(buf[n:], f.Body)
	fcs := crc32.ChecksumIEEE(buf[:n+len(f.Body)])
	binary.LittleEndian.PutUint32(buf[n+len(f.Body):], fcs)
	return buf
}

// Decode parses a wire-format frame. When checkFCS is true the trailing
// CRC-32 is verified and ErrBadFCS returned on mismatch. The Body slice
// aliases raw; callers that retain the frame beyond the life of raw must
// copy it.
func Decode(raw []byte, checkFCS bool) (Frame, error) {
	var f Frame
	if len(raw) < hdrLenCTSACK+fcsLen {
		return f, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(raw))
	}
	f.FC = DecodeFrameControl(binary.LittleEndian.Uint16(raw[0:2]))
	f.Duration = binary.LittleEndian.Uint16(raw[2:4])
	copy(f.Addr1[:], raw[4:10])
	n := f.headerLen()
	if len(raw) < n+fcsLen {
		return f, fmt.Errorf("%w: %d bytes for %s/%d header", ErrShortFrame, len(raw), f.FC.Type, f.FC.Subtype)
	}
	if n >= hdrLenRTS {
		copy(f.Addr2[:], raw[10:16])
	}
	if n >= hdrLenData {
		copy(f.Addr3[:], raw[16:22])
		f.SeqCtl = binary.LittleEndian.Uint16(raw[22:24])
	}
	if n >= hdrLenQoS {
		f.QoSCtl = binary.LittleEndian.Uint16(raw[24:26])
	}
	// Control frames carry no frame body (Frame documents Body as nil
	// for them). Captures routinely pad short control frames — radiotap
	// vendor trailers, driver padding to a minimum record length — and
	// aliasing that tail as a Body would invent content downstream.
	if f.FC.Type != TypeControl {
		f.Body = raw[n : len(raw)-fcsLen]
	}
	if checkFCS {
		want := binary.LittleEndian.Uint32(raw[len(raw)-fcsLen:])
		got := crc32.ChecksumIEEE(raw[:len(raw)-fcsLen])
		if want != got {
			return f, ErrBadFCS
		}
	}
	return f, nil
}

// Header is the view of a frame's MAC header that a capture record
// reads: DecodeHeader fills it without building a Frame.
type Header struct {
	Class     Class
	Retry     bool
	Protected bool
	RA        Addr
	TA        Addr   // zero for frame types without a transmitter address
	Body      []byte // aliases the decoded bytes; nil for control frames
}

// fcInfo is what the frame control's low byte (protocol, type and
// subtype) determines about a frame's header.
type fcInfo struct {
	class   Class
	hdrLen  uint8
	hasTA   bool
	hasBody bool
}

// fcTable maps every frame-control low byte to its fcInfo. It is built
// from Classify, headerLen and HasTA, so it agrees with Decode by
// construction.
var fcTable = func() (t [256]fcInfo) {
	for b := range t {
		f := Frame{FC: DecodeFrameControl(uint16(b))}
		t[b] = fcInfo{Classify(f.FC), uint8(f.headerLen()), f.HasTA(), f.FC.Type != TypeControl}
	}
	return t
}()

// DecodeHeader is Decode(raw, false) reduced to the fields of Header:
// it accepts exactly the frames Decode accepts, and fills h with
// Classify(f.FC), f.FC.Retry, f.FC.Protected, f.RA(), f.TA() and
// f.Body. It reports false, leaving h unspecified, for a short frame.
func DecodeHeader(raw []byte, h *Header) bool {
	if len(raw) < hdrLenCTSACK+fcsLen {
		return false
	}
	fc := &fcTable[raw[0]]
	n := int(fc.hdrLen)
	if len(raw) < n+fcsLen {
		return false
	}
	h.Class = fc.class
	// Retry and Protected are frame-control bits 11 and 14, in the
	// little-endian field's high byte.
	h.Retry = raw[1]&(1<<(11-8)) != 0
	h.Protected = raw[1]&(1<<(14-8)) != 0
	copy(h.RA[:], raw[4:10])
	h.TA = ZeroAddr
	if fc.hasTA {
		copy(h.TA[:], raw[10:16])
	}
	h.Body = nil
	if fc.hasBody {
		h.Body = raw[n : len(raw)-fcsLen]
	}
	return true
}

// NewData builds an unencrypted data frame from a station to the DS
// (ToDS=1): Addr1=BSSID, Addr2=SA, Addr3=DA.
func NewData(sa, bssid, da Addr, body []byte) Frame {
	return Frame{
		FC:    FrameControl{Type: TypeData, Subtype: SubtypeData, ToDS: true},
		Addr1: bssid,
		Addr2: sa,
		Addr3: da,
		Body:  body,
	}
}

// NewQoSData builds a QoS data frame from a station to the DS.
func NewQoSData(sa, bssid, da Addr, tid uint8, body []byte) Frame {
	return Frame{
		FC:     FrameControl{Type: TypeData, Subtype: SubtypeQoSData, ToDS: true},
		Addr1:  bssid,
		Addr2:  sa,
		Addr3:  da,
		QoSCtl: uint16(tid & 0xf),
		Body:   body,
	}
}

// NewNull builds a null-function frame, typically used to signal a
// power-save transition. pwrMgmt sets the power-management bit.
func NewNull(sa, bssid Addr, pwrMgmt bool) Frame {
	return Frame{
		FC:    FrameControl{Type: TypeData, Subtype: SubtypeNull, ToDS: true, PwrMgmt: pwrMgmt},
		Addr1: bssid,
		Addr2: sa,
		Addr3: bssid,
	}
}

// NewRTS builds a request-to-send control frame.
func NewRTS(ta, ra Addr, duration uint16) Frame {
	return Frame{
		FC:       FrameControl{Type: TypeControl, Subtype: SubtypeRTS},
		Duration: duration,
		Addr1:    ra,
		Addr2:    ta,
	}
}

// NewCTS builds a clear-to-send control frame. CTS carries no TA.
func NewCTS(ra Addr, duration uint16) Frame {
	return Frame{
		FC:       FrameControl{Type: TypeControl, Subtype: SubtypeCTS},
		Duration: duration,
		Addr1:    ra,
	}
}

// NewACK builds an acknowledgement control frame. ACK carries no TA.
func NewACK(ra Addr) Frame {
	return Frame{
		FC:    FrameControl{Type: TypeControl, Subtype: SubtypeACK},
		Addr1: ra,
	}
}

// NewBeacon builds a beacon management frame with the given body
// (timestamp, interval, capabilities and IEs are opaque here).
func NewBeacon(bssid Addr, body []byte) Frame {
	return Frame{
		FC:    FrameControl{Type: TypeManagement, Subtype: SubtypeBeacon},
		Addr1: Broadcast,
		Addr2: bssid,
		Addr3: bssid,
		Body:  body,
	}
}

// NewProbeReq builds a broadcast probe request from sa with a
// well-formed body: an SSID element (empty ssid = wildcard probe) and a
// DefaultRates supported-rates element, so generated frames round-trip
// through ParseMgmtBody. Use BuildProbeBody directly for custom rates
// or extra elements.
func NewProbeReq(sa Addr, ssid []byte) Frame {
	return Frame{
		FC:    FrameControl{Type: TypeManagement, Subtype: SubtypeProbeReq},
		Addr1: Broadcast,
		Addr2: sa,
		Addr3: Broadcast,
		Body:  BuildProbeBody(ssid, nil, nil),
	}
}

// NewProbeResp builds a probe response from an AP to a station.
func NewProbeResp(bssid, da Addr, body []byte) Frame {
	return Frame{
		FC:    FrameControl{Type: TypeManagement, Subtype: SubtypeProbeResp},
		Addr1: da,
		Addr2: bssid,
		Addr3: bssid,
		Body:  body,
	}
}
