package capture

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"dot11fp/internal/dot11"
	"dot11fp/internal/pcap"
	"dot11fp/internal/prism"
	"dot11fp/internal/radiotap"
)

// FuzzStreamReader feeds arbitrary bytes to the full capture input
// stack — pcap framing, then radiotap or Prism metadata, then the
// 802.11 header — which is exactly what a live `tcpdump -w -` pipe can
// deliver after a driver glitch. Every input must stream, skip, or
// error; never panic. The record/skip totals are bounded by the input
// size, since every parsed packet costs at least a 16-byte record
// header, and every record's Size is at least the minimum 802.11 frame
// (it is never below the decoded frame's length).
//
// The target is also differential: refStream, the straightforward
// decoding stack (io.ReadFull framing, the package-level radiotap and
// 802.11 decoders), must yield the same records, the same skip count,
// the same Base/Channel/Encrypted and the same terminal error.
func FuzzStreamReader(f *testing.F) {
	tr := sampleTrace()
	var rt bytes.Buffer
	if err := WritePcap(&rt, tr); err != nil {
		f.Fatal(err)
	}
	enc := rt.Bytes()
	f.Add(enc)
	var avs bytes.Buffer
	if err := WritePcapLinkType(&avs, tr, pcap.LinkTypePrism); err != nil {
		f.Fatal(err)
	}
	f.Add(avs.Bytes())
	// Truncations at the header, mid stream, and one byte short.
	f.Add(enc[:24])
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:len(enc)-1])
	// A corrupted radiotap/802.11 region mid stream.
	bad := append([]byte(nil), enc...)
	for i := 44; i < 52 && i < len(bad); i++ {
		bad[i] ^= 0xFF
	}
	f.Add(bad)
	// An unsupported link type in an otherwise valid file.
	wrongLink := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(wrongLink[20:24], pcap.LinkTypeIEEE80211)
	f.Add(wrongLink)
	// A record whose orig_len is below its incl_len.
	shortOrig := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(shortOrig[24+12:24+16], 0)
	f.Add(shortOrig)
	// A record header cut short after a complete record, and a record
	// spanning bufio's window edge (a long capture, cut in its last
	// record header).
	f.Add(enc[:24+16+int(binary.LittleEndian.Uint32(enc[24+8:]))+9])
	long := bytes.Repeat(enc[24:], 40)
	f.Add(append(append([]byte(nil), enc[:24]...), long[:len(long)-len(enc[24:])+5]...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		sr, err := NewStreamReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		ref := newRefStream(raw)
		var n uint64
		for {
			rec, err := sr.Next()
			want, wantErr := ref.next()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("record %d: error %v, reference %v", n, err, wantErr)
			}
			if err != nil {
				break // io.EOF, or a corrupt tail surfacing as an error
			}
			if !rec.Equal(want) {
				t.Fatalf("record %d:\n got %+v\nwant %+v", n, rec, want)
			}
			if rec.Size < 14 {
				t.Fatalf("record %d: Size %d below the minimum 802.11 frame", n, rec.Size)
			}
			n++
		}
		if sr.Skipped() != ref.skipped {
			t.Fatalf("skipped %d, reference %d", sr.Skipped(), ref.skipped)
		}
		if !sr.Base().Equal(ref.base) || sr.Channel() != ref.channel || sr.Encrypted() != ref.encrypted {
			t.Fatalf("base/channel/encrypted %v/%d/%v, reference %v/%d/%v",
				sr.Base(), sr.Channel(), sr.Encrypted(), ref.base, ref.channel, ref.encrypted)
		}
		if total := n + sr.Skipped(); total > uint64(len(raw))/16+1 {
			t.Fatalf("%d records+skips out of %d input bytes", total, len(raw))
		}
	})
}

// refStream is StreamReader's specification written the plain way:
// pcap framing with two io.ReadFull calls per record, then the
// package-level radiotap.Decode or prism.Decode, then dot11.Decode and
// the Frame accessors. Construct it only over input NewStreamReader
// accepted.
type refStream struct {
	r         *bufio.Reader
	order     binary.ByteOrder
	nanos     bool
	snapLen   uint32
	isPrism   bool
	buf       []byte
	skipped   uint64
	first     bool
	base      time.Time
	channel   int
	encrypted bool
}

func newRefStream(raw []byte) *refStream {
	s := &refStream{r: bufio.NewReader(bytes.NewReader(raw[24:])), first: true}
	switch binary.LittleEndian.Uint32(raw[0:4]) {
	case 0xa1b2c3d4:
		s.order = binary.LittleEndian
	case 0xa1b23c4d:
		s.order, s.nanos = binary.LittleEndian, true
	case 0xd4c3b2a1:
		s.order = binary.BigEndian
	case 0x4d3cb2a1:
		s.order, s.nanos = binary.BigEndian, true
	}
	s.snapLen = s.order.Uint32(raw[16:20])
	s.isPrism = s.order.Uint32(raw[20:24]) == pcap.LinkTypePrism
	return s
}

// referenceNextInto is pcap.Reader.NextInto's framing done with
// io.ReadFull for the record header and body alike.
func (s *refStream) referenceNextInto(buf []byte) (pcap.Packet, error) {
	var rec [16]byte
	if _, err := io.ReadFull(s.r, rec[:]); err != nil {
		if err == io.EOF {
			return pcap.Packet{}, io.EOF
		}
		return pcap.Packet{}, fmt.Errorf("%w: record header: %v", pcap.ErrTruncated, err)
	}
	sec := int64(s.order.Uint32(rec[0:4]))
	sub := int64(s.order.Uint32(rec[4:8]))
	incl := s.order.Uint32(rec[8:12])
	orig := s.order.Uint32(rec[12:16])
	if incl > 1<<26 || (incl > s.snapLen && s.snapLen > 0 && incl > pcap.DefaultSnapLen) {
		return pcap.Packet{}, fmt.Errorf("pcap: implausible record length %d", incl)
	}
	var data []byte
	if int(incl) <= cap(buf) {
		data = buf[:incl]
	} else {
		data = make([]byte, incl)
	}
	if _, err := io.ReadFull(s.r, data); err != nil {
		return pcap.Packet{}, fmt.Errorf("%w: record body: %v", pcap.ErrTruncated, err)
	}
	ns := sub * 1000
	if s.nanos {
		ns = sub
	}
	return pcap.Packet{Time: time.Unix(sec, ns).UTC(), Data: data, OrigLen: int(max(orig, incl))}, nil
}

func (s *refStream) next() (Record, error) {
	for {
		p, err := s.referenceNextInto(s.buf)
		if err != nil {
			return Record{}, err
		}
		s.buf = p.Data[:cap(p.Data)]
		var meta captureMeta
		var n int
		if s.isPrism {
			ph, hn, err := prism.Decode(p.Data)
			if err != nil {
				s.skipped++
				continue
			}
			n = hn
			meta = captureMeta{
				hasTime: true, timeUs: ph.MACTime, rate: ph.RateMbps(),
				channel: int(ph.Channel), fcsOK: true,
				hasSig: ph.SSIType == prism.SSITypeDBm, sig: int8(ph.SSISignal),
			}
		} else {
			rt, hn, err := radiotap.Decode(p.Data)
			if err != nil {
				s.skipped++
				continue
			}
			n = hn
			meta = captureMeta{
				hasTime: rt.HasTSFT, timeUs: rt.TSFT, rate: rt.RateMbps(),
				channel: channelOf(rt.ChannelFreq),
				fcsOK:   !rt.HasFlags || rt.Flags&radiotap.FlagBadFCS == 0,
				hasSig:  rt.HasAntSignal, sig: rt.AntSignal,
			}
		}
		frame, err := dot11.Decode(p.Data[n:], false)
		if err != nil {
			s.skipped++
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
		t := p.Time.Sub(s.base).Microseconds()
		if meta.hasTime {
			t = int64(meta.timeUs)
		}
		rec := Record{
			T: t, Sender: frame.TA(), Receiver: frame.RA(), Class: dot11.Classify(frame.FC),
			Size: p.OrigLen - n, RateMbps: meta.rate, Retry: frame.FC.Retry,
			FCSOK: meta.fcsOK, Protected: frame.FC.Protected,
		}
		if meta.hasSig {
			rec.SignalDBm = meta.sig
		}
		if rec.Class == dot11.ClassProbeReq && len(frame.Body) > 0 {
			rec.ProbeIEs = append([]byte(nil), frame.Body...)
		}
		if rec.Protected {
			s.encrypted = true
		}
		return rec, nil
	}
}
