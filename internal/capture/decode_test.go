package capture

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"dot11fp/internal/dot11"
	"dot11fp/internal/pcap"
	"dot11fp/internal/radiotap"
)

// TestStreamReaderNextZeroAllocs pins the decode layer's steady state
// for both capture-header formats: once the packet buffer has grown,
// Next allocates nothing for a record without probe content, and
// exactly once (the ProbeIEs copy) for a probe request carrying IEs.
// Not parallel: AllocsPerRun counts every goroutine's allocations.
func TestStreamReaderNextZeroAllocs(t *testing.T) {
	const runs, warm = 200, 8
	base := time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)
	classes := []dot11.Class{dot11.ClassData, dot11.ClassQoSData, dot11.ClassACK,
		dot11.ClassRTS, dot11.ClassBeacon, dot11.ClassNull, dot11.ClassCTS}
	plain := &Trace{Base: base, Channel: 6}
	probes := &Trace{Base: base, Channel: 6}
	ies := dot11.BuildProbeBody([]byte("corpnet"), nil, nil)
	for i := 0; i < warm+runs+1; i++ {
		sta := dot11.LocalAddr(uint64(i%5 + 1))
		c := classes[i%len(classes)]
		sender := sta
		if c == dot11.ClassACK || c == dot11.ClassCTS {
			sender = dot11.ZeroAddr
		}
		plain.Records = append(plain.Records, Record{
			T: int64(i) * 900, Sender: sender, Receiver: dot11.LocalAddr(99), Class: c,
			Size: 1500 - i, RateMbps: 24, FCSOK: true, SignalDBm: -50,
		})
		probes.Records = append(probes.Records, Record{
			T: int64(i) * 900, Sender: sta, Receiver: dot11.Broadcast, Class: dot11.ClassProbeReq,
			Size: 70, RateMbps: 1, FCSOK: true, ProbeIEs: ies,
		})
	}
	for _, lt := range []uint32{pcap.LinkTypeRadiotap, pcap.LinkTypePrism} {
		for _, tc := range []struct {
			name string
			tr   *Trace
			want float64
		}{{"plain", plain, 0}, {"probes", probes, 1}} {
			var buf bytes.Buffer
			if err := WritePcapLinkType(&buf, tc.tr, lt); err != nil {
				t.Fatal(err)
			}
			sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warm; i++ {
				if _, err := sr.Next(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := sr.Next(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != tc.want {
				t.Errorf("link %d %s: %v allocations per Next, want %v", lt, tc.name, allocs, tc.want)
			}
		}
	}
}

// Regression: a record whose orig_len is below its incl_len (a hostile
// or corrupt capture; writers never produce one) used to decode with a
// negative Size — orig_len 0 gave -23 — feeding a negative transmission
// time into the txtime and medium-access parameters. The pcap reader
// now reports OrigLen = max(orig_len, incl_len), so Size is the
// captured frame's length.
func TestStreamReaderOrigLenBelowInclLen(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WritePcap(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var frameLens []int
	for off := 24; off+16 <= len(raw); {
		incl := int(binary.LittleEndian.Uint32(raw[off+8:]))
		binary.LittleEndian.PutUint32(raw[off+12:], 0)
		_, n, err := radiotap.Decode(raw[off+16 : off+16+incl])
		if err != nil {
			t.Fatal(err)
		}
		frameLens = append(frameLens, incl-n)
		off += 16 + incl
	}
	tr, err := ReadPcap(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != len(frameLens) {
		t.Fatalf("%d records, want %d", len(tr.Records), len(frameLens))
	}
	for i, rec := range tr.Records {
		if rec.Size != frameLens[i] || rec.Size < 14 {
			t.Errorf("record %d: Size %d, want the captured frame length %d", i, rec.Size, frameLens[i])
		}
	}
}
