package dot11

import (
	"bytes"
	"testing"
)

// checkDecodeHeader fails unless DecodeHeader agrees with Decode(raw,
// false) on raw: the same accept/reject decision and, on success, the
// same class, flags, addresses and body. h starts out filled with junk,
// so a field DecodeHeader forgets to write shows up as a mismatch.
func checkDecodeHeader(t *testing.T, raw []byte) {
	t.Helper()
	f, err := Decode(raw, false)
	h := Header{Class: ClassCtlOther, Retry: true, Protected: true, RA: Broadcast, TA: Broadcast, Body: []byte{1}}
	ok := DecodeHeader(raw, &h)
	if ok != (err == nil) {
		t.Fatalf("% x: DecodeHeader ok = %v, Decode err = %v", raw, ok, err)
	}
	if !ok {
		return
	}
	want := Header{
		Class: Classify(f.FC), Retry: f.FC.Retry, Protected: f.FC.Protected,
		RA: f.RA(), TA: f.TA(), Body: f.Body,
	}
	if h.Class != want.Class || h.Retry != want.Retry || h.Protected != want.Protected ||
		h.RA != want.RA || h.TA != want.TA {
		t.Fatalf("% x: DecodeHeader = %+v, want %+v", raw, h, want)
	}
	if (h.Body == nil) != (want.Body == nil) || !bytes.Equal(h.Body, want.Body) {
		t.Fatalf("% x: body = %x (nil %v), want %x (nil %v)", raw, h.Body, h.Body == nil, want.Body, want.Body == nil)
	}
	if f.FC.Type == TypeControl && h.Body != nil {
		t.Fatalf("% x: control frame with body %x", raw, h.Body)
	}
}

// TestDecodeHeaderEveryFrameControl runs every frame-control value at
// every length around the header-size boundaries through
// checkDecodeHeader — the whole domain of the lookup table, both
// frame-control bytes included.
func TestDecodeHeaderEveryFrameControl(t *testing.T) {
	raw := make([]byte, hdrLenQoS+fcsLen+3)
	for i := range raw {
		raw[i] = byte(i*7 + 1)
	}
	lengths := []int{0, 2, 13, 14, 15, 19, 20, 21, 27, 28, 29, 30, 31, len(raw)}
	for fc := 0; fc < 1<<16; fc++ {
		raw[0], raw[1] = byte(fc), byte(fc>>8)
		for _, n := range lengths {
			checkDecodeHeader(t, raw[:n])
		}
	}
}

// FuzzDecodeHeader: DecodeHeader must accept and reject exactly what
// Decode(raw, false) does, and report the same header fields.
func FuzzDecodeHeader(f *testing.F) {
	sta, ap := LocalAddr(1), LocalAddr(2)
	frames := []Frame{
		NewData(sta, ap, Broadcast, []byte("payload")),
		NewQoSData(sta, ap, ap, 5, []byte{1, 2, 3}),
		NewNull(sta, ap, true),
		NewRTS(sta, ap, 300),
		NewCTS(sta, 200),
		NewACK(sta),
		NewBeacon(ap, []byte{0, 1, 2, 3, 4, 5, 6, 7}),
		NewProbeReq(sta, []byte("corpnet")),
		NewProbeResp(ap, sta, []byte{9, 9}),
	}
	for _, fr := range frames {
		fr.FC.Retry, fr.FC.Protected = true, fr.FC.Type == TypeData
		enc := fr.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(enc[:hdrLenCTSACK+fcsLen])
	}
	// A reserved frame type and a CF-End (control, no TA, 16-byte header).
	f.Add(append([]byte{0x0c, 0}, make([]byte, 26)...))
	f.Add(append([]byte{0xe4, 0}, make([]byte, 18)...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecodeHeader(t, raw)
	})
}
