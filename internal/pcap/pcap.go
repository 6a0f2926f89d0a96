// Package pcap reads and writes classic libpcap capture files
// (the pre-pcapng format every 802.11 monitoring toolchain emits).
// Both microsecond- and nanosecond-resolution magics and both byte
// orders are supported on read; writes use the native microsecond
// little-endian form, which matches the paper's Python/pcap tooling.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Link types relevant to 802.11 monitoring.
const (
	// LinkTypeIEEE80211 is raw 802.11 frames without capture metadata.
	LinkTypeIEEE80211 = 105
	// LinkTypePrism is 802.11 preceded by a Prism monitoring header.
	LinkTypePrism = 119
	// LinkTypeRadiotap is 802.11 preceded by a radiotap header — the
	// format this project writes and the paper's captures use.
	LinkTypeRadiotap = 127
)

const (
	magicMicros        = 0xa1b2c3d4
	magicNanos         = 0xa1b23c4d
	magicMicrosSwapped = 0xd4c3b2a1
	magicNanosSwapped  = 0x4d3cb2a1

	// DefaultSnapLen is the snapshot length written in new file headers.
	DefaultSnapLen = 65535
)

// Errors.
var (
	ErrBadMagic  = errors.New("pcap: unrecognised magic number")
	ErrTruncated = errors.New("pcap: truncated file")
)

// Packet is one captured record.
type Packet struct {
	// Time is the capture timestamp.
	Time time.Time
	// Data is the captured bytes (link-type dependent payload).
	Data []byte
	// OrigLen is the original packet length on the medium; equal to
	// len(Data) unless the capture truncated the packet. The Reader
	// reports max(orig_len, incl_len), so OrigLen is never below
	// len(Data) even when a corrupt record claims otherwise (Writer
	// clamps the same way).
	OrigLen int
}

// Writer emits a pcap stream.
type Writer struct {
	w        *bufio.Writer
	linkType uint32
	wroteHdr bool
}

// NewWriter creates a Writer targeting w with the given link type.
// The file header is written lazily on the first packet (or Flush).
func NewWriter(w io.Writer, linkType uint32) *Writer {
	return &Writer{w: bufio.NewWriter(w), linkType: linkType}
}

func (w *Writer) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	binary.LittleEndian.PutUint32(hdr[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], w.linkType)
	_, err := w.w.Write(hdr[:])
	w.wroteHdr = true
	return err
}

// WritePacket appends one record.
func (w *Writer) WritePacket(p Packet) error {
	if !w.wroteHdr {
		if err := w.writeHeader(); err != nil {
			return fmt.Errorf("pcap: writing file header: %w", err)
		}
	}
	var rec [16]byte
	sec := p.Time.Unix()
	usec := p.Time.Nanosecond() / 1000
	binary.LittleEndian.PutUint32(rec[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(usec))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(p.Data)))
	orig := p.OrigLen
	if orig < len(p.Data) {
		orig = len(p.Data)
	}
	binary.LittleEndian.PutUint32(rec[12:16], uint32(orig))
	if _, err := w.w.Write(rec[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(p.Data); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// Flush writes any buffered data (and the file header, if no packet has
// been written yet, so that even empty captures are valid files).
func (w *Writer) Flush() error {
	if !w.wroteHdr {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Reader parses a pcap stream.
type Reader struct {
	r         *bufio.Reader
	byteOrder binary.ByteOrder
	nanos     bool
	linkType  uint32
	snapLen   uint32
	// hdr receives a record header that straddles the buffered window.
	// As a local it would escape through io.ReadFull and cost one
	// allocation per such record.
	hdr [16]byte
}

// NewReader parses the file header and returns a Reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: file header: %v", ErrTruncated, err)
	}
	pr := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	switch magicLE {
	case magicMicros:
		pr.byteOrder = binary.LittleEndian
	case magicNanos:
		pr.byteOrder, pr.nanos = binary.LittleEndian, true
	case magicMicrosSwapped:
		pr.byteOrder = binary.BigEndian
	case magicNanosSwapped:
		pr.byteOrder, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, magicLE)
	}
	pr.snapLen = pr.byteOrder.Uint32(hdr[16:20])
	pr.linkType = pr.byteOrder.Uint32(hdr[20:24])
	return pr, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen returns the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Next returns the next record, or io.EOF at clean end of file.
func (r *Reader) Next() (Packet, error) { return r.NextInto(nil) }

// NextInto is Next with a caller-recycled buffer: when buf has the
// capacity for the record, the returned Packet.Data aliases it instead
// of allocating — the streaming reader's steady state. Pass the
// previous packet's Data (resliced to capacity) to amortise the buffer
// across a whole capture.
func (r *Reader) NextInto(buf []byte) (Packet, error) {
	// The common record lies wholly inside the buffered window: peek its
	// header and copy the body straight out of the window, one copy and
	// no read calls. A record straddling the window's end is read with
	// io.ReadFull, header and body alike.
	var rec []byte
	if r.r.Buffered() >= 16 {
		rec, _ = r.r.Peek(16)
		_, _ = r.r.Discard(16) // rec stays valid until the next read
	} else {
		rec = r.hdr[:]
		if _, err := io.ReadFull(r.r, rec); err != nil {
			if err == io.EOF {
				return Packet{}, io.EOF
			}
			return Packet{}, fmt.Errorf("%w: record header: %v", ErrTruncated, err)
		}
	}
	sec := int64(r.byteOrder.Uint32(rec[0:4]))
	sub := int64(r.byteOrder.Uint32(rec[4:8]))
	incl := r.byteOrder.Uint32(rec[8:12])
	orig := r.byteOrder.Uint32(rec[12:16])
	// Bound the allocation before trusting incl: a corrupt or hostile
	// header must not make a 4 GiB buffer out of 16 bytes of input.
	const maxRecord = 1 << 26
	if incl > maxRecord || (incl > r.snapLen && r.snapLen > 0 && incl > DefaultSnapLen) {
		return Packet{}, fmt.Errorf("pcap: implausible record length %d", incl)
	}
	var data []byte
	if int(incl) <= cap(buf) {
		data = buf[:incl]
	} else {
		data = make([]byte, incl)
	}
	// Data is a copy, never a view of the buffered window: it must stay
	// valid across later reads.
	if n := int(incl); n <= r.r.Buffered() {
		win, _ := r.r.Peek(n)
		copy(data, win)
		_, _ = r.r.Discard(n)
	} else {
		if _, err := io.ReadFull(r.r, data); err != nil {
			return Packet{}, fmt.Errorf("%w: record body: %v", ErrTruncated, err)
		}
	}
	ns := sub * 1000
	if r.nanos {
		ns = sub
	}
	return Packet{
		Time:    time.Unix(sec, ns).UTC(),
		Data:    data,
		OrigLen: int(max(orig, incl)),
	}, nil
}

// ReadAll drains the stream into a slice. Useful for tests and small
// captures; large traces should iterate Next.
func (r *Reader) ReadAll() ([]Packet, error) {
	var pkts []Packet
	for {
		p, err := r.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}
