package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRadiotap)
	base := time.Date(2008, 8, 19, 11, 0, 0, 0, time.UTC)
	want := []Packet{
		{Time: base, Data: []byte("first"), OrigLen: 5},
		{Time: base.Add(137 * time.Microsecond), Data: []byte("second frame"), OrigLen: 12},
		{Time: base.Add(2 * time.Second), Data: bytes.Repeat([]byte{0xaa}, 1500), OrigLen: 1500},
	}
	for _, p := range want {
		if err := w.WritePacket(p); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.LinkType() != LinkTypeRadiotap {
		t.Errorf("LinkType = %d, want %d", r.LinkType(), LinkTypeRadiotap)
	}
	if r.SnapLen() != DefaultSnapLen {
		t.Errorf("SnapLen = %d, want %d", r.SnapLen(), DefaultSnapLen)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Time.Equal(want[i].Time) {
			t.Errorf("packet %d time = %v, want %v", i, got[i].Time, want[i].Time)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("packet %d data mismatch", i)
		}
		if got[i].OrigLen != want[i].OrigLen {
			t.Errorf("packet %d origlen = %d, want %d", i, got[i].OrigLen, want[i].OrigLen)
		}
	}
}

func TestMicrosecondPrecisionPreserved(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRadiotap)
	ts := time.Unix(1219143600, 123456000).UTC() // .123456 s
	if err := w.WritePacket(Packet{Time: ts, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Time.Equal(ts) {
		t.Fatalf("time = %v (ns=%d), want %v", p.Time, p.Time.Nanosecond(), ts)
	}
}

func TestEmptyCaptureIsValid(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader on empty capture: %v", err)
	}
	if r.LinkType() != LinkTypeIEEE80211 {
		t.Errorf("LinkType = %d", r.LinkType())
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty capture = %v, want io.EOF", err)
	}
}

func TestReadBigEndian(t *testing.T) {
	t.Parallel()
	// Hand-build a big-endian µs file with one 3-byte packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], magicMicros)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypePrism)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 1000)
	binary.BigEndian.PutUint32(rec[4:8], 250)
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 3)
	buf.Write(rec)
	buf.Write([]byte{9, 8, 7})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypePrism {
		t.Errorf("LinkType = %d, want prism", r.LinkType())
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(1000, 250_000).UTC()
	if !p.Time.Equal(want) {
		t.Errorf("time = %v, want %v", p.Time, want)
	}
	if !bytes.Equal(p.Data, []byte{9, 8, 7}) {
		t.Errorf("data = %v", p.Data)
	}
}

func TestReadNanosecondMagic(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], magicNanos)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRadiotap)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:4], 7)
	binary.LittleEndian.PutUint32(rec[4:8], 999_999_999)
	binary.LittleEndian.PutUint32(rec[8:12], 1)
	binary.LittleEndian.PutUint32(rec[12:16], 1)
	buf.Write(rec)
	buf.WriteByte(0xff)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(7, 999_999_999).UTC()
	if !p.Time.Equal(want) {
		t.Errorf("time = %v, want %v", p.Time, want)
	}
}

func TestBadMagic(t *testing.T) {
	t.Parallel()
	buf := bytes.NewReader(make([]byte, 24)) // zero magic
	if _, err := NewReader(buf); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	t.Parallel()
	buf := bytes.NewReader(make([]byte, 10))
	if _, err := NewReader(buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRadiotap)
	if err := w.WritePacket(Packet{Time: time.Unix(0, 0), Data: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut inside the record body.
	r, err := NewReader(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("body cut: err = %v, want ErrTruncated", err)
	}

	// Cut inside the record header.
	r, err = NewReader(bytes.NewReader(full[:24+8]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("header cut: err = %v, want ErrTruncated", err)
	}
}

func TestOrigLenDefaultsToDataLen(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRadiotap)
	if err := w.WritePacket(Packet{Time: time.Unix(1, 0), Data: []byte("xyz")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.OrigLen != 3 {
		t.Fatalf("OrigLen = %d, want 3", p.OrigLen)
	}
}

// TestOrigLenNeverBelowInclLen: a record header claiming an orig_len
// below its incl_len reads back with OrigLen = incl_len (the clamp
// Writer applies on the way out); a larger orig_len is kept.
func TestOrigLenNeverBelowInclLen(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ orig, want uint32 }{{0, 6}, {5, 6}, {6, 6}, {1500, 1500}} {
		var buf bytes.Buffer
		w := NewWriter(&buf, LinkTypeRadiotap)
		if err := w.WritePacket(Packet{Time: time.Unix(1, 0), Data: []byte("abcdef")}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		binary.LittleEndian.PutUint32(raw[24+12:24+16], tc.orig)
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p.OrigLen != int(tc.want) {
			t.Errorf("orig_len %d: OrigLen = %d, want %d", tc.orig, p.OrigLen, tc.want)
		}
	}
}

func TestManyPackets(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRadiotap)
	base := time.Unix(1_219_143_600, 0)
	const n = 5000
	for i := 0; i < n; i++ {
		p := Packet{Time: base.Add(time.Duration(i) * 731 * time.Microsecond), Data: []byte{byte(i), byte(i >> 8)}}
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var last time.Time
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if count > 0 && !p.Time.After(last) {
			t.Fatalf("packet %d not time-ordered", count)
		}
		last = p.Time
		count++
	}
	if count != n {
		t.Fatalf("read %d packets, want %d", count, n)
	}
}

// TestReaderNextIntoZeroAllocs pins the streaming reader's steady state:
// with a recycled buffer, reading a record allocates nothing.
func TestReaderNextIntoZeroAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRadiotap)
	base := time.Unix(1_219_143_600, 0)
	const runs = 200
	for i := 0; i <= runs; i++ {
		p := Packet{Time: base.Add(time.Duration(i) * time.Millisecond), Data: bytes.Repeat([]byte{byte(i)}, 64)}
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(runs, func() {
		p, err := r.NextInto(rec[:cap(rec)])
		if err != nil {
			t.Fatal(err)
		}
		rec = p.Data
	})
	if allocs != 0 {
		t.Fatalf("NextInto allocated %v times per record, want 0", allocs)
	}
}
