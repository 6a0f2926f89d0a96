// Package radiotap encodes and decodes Radiotap capture headers
// (https://www.radiotap.org/), the de-facto metadata format a wireless
// card in monitor mode prepends to each received 802.11 frame.
//
// The paper's entire method rests on the fact that the *receiving*
// driver generates these headers, so a sender cannot spoof them: the
// reception timestamp (TSFT), the transmission rate and the frame length
// are exactly the inputs of the five fingerprint parameters. This
// package implements the subset of fields a standard capture produces,
// with the standard per-field alignment rules, and skips unknown fields
// gracefully so that real-world pcaps parse.
package radiotap

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Present-bitmap field indices (radiotap field bit numbers).
const (
	bitTSFT        = 0
	bitFlags       = 1
	bitRate        = 2
	bitChannel     = 3
	bitFHSS        = 4
	bitAntSignal   = 5
	bitAntNoise    = 6
	bitLockQuality = 7
	bitTxAttenua   = 8
	bitDBTxAtten   = 9
	bitDBmTxPower  = 10
	bitAntenna     = 11
	bitDBAntSignal = 12
	bitDBAntNoise  = 13
	bitRxFlags     = 14
	bitExt         = 31
)

// Flags field bits.
const (
	// FlagShortPreamble marks a frame received with the short PLCP preamble.
	FlagShortPreamble = 0x02
	// FlagWEP marks a frame received encrypted.
	FlagWEP = 0x04
	// FlagFCS indicates the frame includes the 4-byte FCS at the end.
	FlagFCS = 0x10
	// FlagBadFCS indicates the frame failed its FCS check.
	FlagBadFCS = 0x40
)

// Channel flags.
const (
	// ChanCCK marks a CCK (802.11b) channel mode.
	ChanCCK = 0x0020
	// ChanOFDM marks an OFDM (802.11a/g) channel mode.
	ChanOFDM = 0x0040
	// Chan2GHz marks a 2.4 GHz band channel.
	Chan2GHz = 0x0080
)

// Header is a decoded (or to-be-encoded) radiotap header. Optional
// fields use Has* booleans rather than pointers so that the zero value
// is a valid empty header.
type Header struct {
	// TSFT is the µs-resolution MAC timestamp sampled at the *end* of
	// reception of the frame — the paper's t_i.
	TSFT    uint64
	HasTSFT bool

	Flags    uint8
	HasFlags bool

	// Rate is the reception rate in 500 kb/s units (e.g. 108 = 54 Mb/s).
	Rate    uint8
	HasRate bool

	// ChannelFreq is the channel centre frequency in MHz.
	ChannelFreq  uint16
	ChannelFlags uint16
	HasChannel   bool

	// AntSignal is the RF signal power in dBm.
	AntSignal    int8
	HasAntSignal bool

	// AntNoise is the RF noise power in dBm.
	AntNoise    int8
	HasAntNoise bool

	Antenna    uint8
	HasAntenna bool

	RxFlags    uint16
	HasRxFlags bool
}

// RateMbps returns the reception rate in Mb/s.
func (h *Header) RateMbps() float64 { return float64(h.Rate) / 2 }

// SetRateMbps stores a rate given in Mb/s (500 kb/s wire granularity).
func (h *Header) SetRateMbps(mbps float64) {
	h.Rate = uint8(mbps*2 + 0.5)
	h.HasRate = true
}

// Errors returned by Decode.
var (
	ErrTruncated   = errors.New("radiotap: truncated header")
	ErrBadVersion  = errors.New("radiotap: unsupported version")
	ErrUnknownBits = errors.New("radiotap: unknown present bits beyond skip table")
)

// fieldSpec gives the wire size and alignment of each known field.
var fieldSpecs = [...]struct{ size, align int }{
	bitTSFT:        {8, 8},
	bitFlags:       {1, 1},
	bitRate:        {1, 1},
	bitChannel:     {4, 2},
	bitFHSS:        {2, 2},
	bitAntSignal:   {1, 1},
	bitAntNoise:    {1, 1},
	bitLockQuality: {2, 2},
	bitTxAttenua:   {2, 2},
	bitDBTxAtten:   {2, 2},
	bitDBmTxPower:  {1, 1},
	bitAntenna:     {1, 1},
	bitDBAntSignal: {1, 1},
	bitDBAntNoise:  {1, 1},
	bitRxFlags:     {2, 2},
}

// align advances off to the next multiple of a.
func align(off, a int) int {
	if r := off % a; r != 0 {
		off += a - r
	}
	return off
}

// Encode serialises the header. The returned slice length is the value
// stored in the header's own length field, so callers can append the
// 802.11 frame directly after it.
func (h *Header) Encode() []byte {
	var present uint32
	type put struct {
		bit int
		fn  func(b []byte)
	}
	var puts []put
	add := func(bit int, fn func(b []byte)) {
		present |= 1 << uint(bit)
		puts = append(puts, put{bit, fn})
	}
	if h.HasTSFT {
		add(bitTSFT, func(b []byte) { binary.LittleEndian.PutUint64(b, h.TSFT) })
	}
	if h.HasFlags {
		add(bitFlags, func(b []byte) { b[0] = h.Flags })
	}
	if h.HasRate {
		add(bitRate, func(b []byte) { b[0] = h.Rate })
	}
	if h.HasChannel {
		add(bitChannel, func(b []byte) {
			binary.LittleEndian.PutUint16(b, h.ChannelFreq)
			binary.LittleEndian.PutUint16(b[2:], h.ChannelFlags)
		})
	}
	if h.HasAntSignal {
		add(bitAntSignal, func(b []byte) { b[0] = uint8(h.AntSignal) })
	}
	if h.HasAntNoise {
		add(bitAntNoise, func(b []byte) { b[0] = uint8(h.AntNoise) })
	}
	if h.HasAntenna {
		add(bitAntenna, func(b []byte) { b[0] = h.Antenna })
	}
	if h.HasRxFlags {
		add(bitRxFlags, func(b []byte) { binary.LittleEndian.PutUint16(b, h.RxFlags) })
	}

	// First pass: compute offsets honouring alignment.
	off := 8 // version(1) + pad(1) + len(2) + present(4)
	offsets := make([]int, len(puts))
	for i, p := range puts {
		spec := fieldSpecs[p.bit]
		off = align(off, spec.align)
		offsets[i] = off
		off += spec.size
	}
	buf := make([]byte, off)
	buf[0] = 0 // version
	binary.LittleEndian.PutUint16(buf[2:4], uint16(off))
	binary.LittleEndian.PutUint32(buf[4:8], present)
	for i, p := range puts {
		p.fn(buf[offsets[i]:])
	}
	return buf
}

// Decode parses a radiotap header from the front of raw. It returns the
// header and the total header length, so raw[n:] is the 802.11 frame.
// Unknown fields within the skip table are skipped; present bits beyond
// it (including vendor namespaces) yield ErrUnknownBits.
func Decode(raw []byte) (Header, int, error) {
	var h Header
	if len(raw) < 8 {
		return h, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(raw))
	}
	if raw[0] != 0 {
		return h, 0, fmt.Errorf("%w: %d", ErrBadVersion, raw[0])
	}
	hlen := int(binary.LittleEndian.Uint16(raw[2:4]))
	if hlen < 8 || hlen > len(raw) {
		return h, 0, fmt.Errorf("%w: header len %d, have %d", ErrTruncated, hlen, len(raw))
	}

	// Collect present words (the Ext bit chains additional bitmaps).
	presents := []uint32{binary.LittleEndian.Uint32(raw[4:8])}
	off := 8
	for presents[len(presents)-1]&(1<<bitExt) != 0 {
		if off+4 > hlen {
			return h, 0, fmt.Errorf("%w: chained present word", ErrTruncated)
		}
		presents = append(presents, binary.LittleEndian.Uint32(raw[off:off+4]))
		off += 4
	}
	if len(presents) > 1 {
		// Extra namespaces shift field data in ways we cannot interpret;
		// refuse rather than misparse. Single-word headers cover every
		// capture this project produces and the common real-world ones.
		return h, 0, fmt.Errorf("%w: %d present words", ErrUnknownBits, len(presents))
	}
	present := presents[0]

	for bit := 0; bit < 31; bit++ {
		if present&(1<<uint(bit)) == 0 {
			continue
		}
		if bit >= len(fieldSpecs) || fieldSpecs[bit].size == 0 {
			return h, 0, fmt.Errorf("%w: bit %d", ErrUnknownBits, bit)
		}
		spec := fieldSpecs[bit]
		off = align(off, spec.align)
		if off+spec.size > hlen {
			return h, 0, fmt.Errorf("%w: field bit %d", ErrTruncated, bit)
		}
		b := raw[off : off+spec.size]
		switch bit {
		case bitTSFT:
			h.TSFT = binary.LittleEndian.Uint64(b)
			h.HasTSFT = true
		case bitFlags:
			h.Flags = b[0]
			h.HasFlags = true
		case bitRate:
			h.Rate = b[0]
			h.HasRate = true
		case bitChannel:
			h.ChannelFreq = binary.LittleEndian.Uint16(b)
			h.ChannelFlags = binary.LittleEndian.Uint16(b[2:])
			h.HasChannel = true
		case bitAntSignal:
			h.AntSignal = int8(b[0])
			h.HasAntSignal = true
		case bitAntNoise:
			h.AntNoise = int8(b[0])
			h.HasAntNoise = true
		case bitAntenna:
			h.Antenna = b[0]
			h.HasAntenna = true
		case bitRxFlags:
			h.RxFlags = binary.LittleEndian.Uint16(b)
			h.HasRxFlags = true
		}
		off += spec.size
	}
	return h, hlen, nil
}

// Decoder is Decode with a one-entry layout cache. A monitor emits one
// present word for a whole capture, so the field offsets it implies
// are computed once: the Decoder remembers the layout of the last
// present word that parsed and, while headers keep presenting it, reads
// every field with a straight load from its cached offset. Any other
// header takes Decode's path (and, if it parses, becomes the cached
// layout). Results are identical to Decode's for every input. The zero
// value is ready to use; a Decoder is not safe for concurrent use.
type Decoder struct {
	present uint32
	// end is the offset just past the layout's last field, the smallest
	// header length that holds it; 0 means nothing is cached.
	end int
	// off is the cached offset of each decoded field's bit, 0 when the
	// present word lacks it (real offsets start at 8).
	off [bitRxFlags + 1]uint16
}

// Decode parses a radiotap header from the front of raw exactly like
// the package-level Decode.
func (d *Decoder) Decode(raw []byte) (Header, int, error) {
	if d.end != 0 && len(raw) >= 8 && raw[0] == 0 {
		hlen := int(binary.LittleEndian.Uint16(raw[2:4]))
		if binary.LittleEndian.Uint32(raw[4:8]) == d.present && d.end <= hlen && hlen <= len(raw) {
			return d.load(raw), hlen, nil
		}
	}
	h, n, err := Decode(raw)
	if err == nil {
		d.learn(binary.LittleEndian.Uint32(raw[4:8]))
	}
	return h, n, err
}

// learn caches the layout of a present word Decode has accepted: a
// single word of known bits, so every field has a fieldSpecs entry.
func (d *Decoder) learn(present uint32) {
	d.present, d.off = present, [len(d.off)]uint16{}
	off := 8
	for bit := range fieldSpecs {
		if present&(1<<uint(bit)) == 0 {
			continue
		}
		spec := fieldSpecs[bit]
		off = align(off, spec.align)
		d.off[bit] = uint16(off)
		off += spec.size
	}
	d.end = off
}

// load reads the cached layout's fields from raw; the caller has
// checked that raw holds at least d.end bytes.
func (d *Decoder) load(raw []byte) Header {
	var h Header
	if o := d.off[bitTSFT]; o != 0 {
		h.TSFT, h.HasTSFT = binary.LittleEndian.Uint64(raw[o:]), true
	}
	if o := d.off[bitFlags]; o != 0 {
		h.Flags, h.HasFlags = raw[o], true
	}
	if o := d.off[bitRate]; o != 0 {
		h.Rate, h.HasRate = raw[o], true
	}
	if o := d.off[bitChannel]; o != 0 {
		h.ChannelFreq = binary.LittleEndian.Uint16(raw[o:])
		h.ChannelFlags = binary.LittleEndian.Uint16(raw[o+2:])
		h.HasChannel = true
	}
	if o := d.off[bitAntSignal]; o != 0 {
		h.AntSignal, h.HasAntSignal = int8(raw[o]), true
	}
	if o := d.off[bitAntNoise]; o != 0 {
		h.AntNoise, h.HasAntNoise = int8(raw[o]), true
	}
	if o := d.off[bitAntenna]; o != 0 {
		h.Antenna, h.HasAntenna = raw[o], true
	}
	if o := d.off[bitRxFlags]; o != 0 {
		h.RxFlags, h.HasRxFlags = binary.LittleEndian.Uint16(raw[o:]), true
	}
	return h
}

// Freq2GHz returns the centre frequency in MHz of a 2.4 GHz channel
// number (1–14), e.g. channel 6 → 2437.
func Freq2GHz(channel int) uint16 {
	if channel == 14 {
		return 2484
	}
	return uint16(2407 + 5*channel)
}
