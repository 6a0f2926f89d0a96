package radiotap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzParse hammers Decode with arbitrary bytes — the parser sits
// directly behind pcap input, so every byte sequence a hostile or
// corrupt capture can contain must either decode cleanly or error,
// never panic or over-read. For inputs that do decode, re-encoding the
// decoded header must round-trip: Decode stores exactly the fields
// Encode writes, so a successful parse is self-consistent.
func FuzzParse(f *testing.F) {
	// Seed with real encodings, from minimal to every-field.
	f.Add((&Header{}).Encode())
	full := &Header{
		TSFT: 123456789, HasTSFT: true,
		Flags: FlagFCS | FlagBadFCS, HasFlags: true,
		ChannelFreq: Freq2GHz(6), ChannelFlags: Chan2GHz | ChanOFDM, HasChannel: true,
		AntSignal: -42, HasAntSignal: true,
		AntNoise: -95, HasAntNoise: true,
		Antenna: 1, HasAntenna: true,
		RxFlags: 0x0002, HasRxFlags: true,
	}
	full.SetRateMbps(54)
	f.Add(full.Encode())
	// Truncations, a bogus version, an extended present chain, and an
	// unknown-bit header.
	enc := full.Encode()
	f.Add(enc[:8])
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{1, 0, 8, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 12, 0, 0, 0, 0, 0x80, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 12, 0, 0, 0, 0, 0x40, 0, 0, 0, 0})
	// Header sequences for the Decoder leg (see decoderLeg): layout
	// changes, a cached layout's present word with a header length too
	// short for it, a length past the buffer, padding beyond the last
	// field, and a bad version byte after a hit.
	minimal := (&Header{}).Encode()
	tsft := (&Header{TSFT: 9, HasTSFT: true}).Encode()
	shortLen := withLen(enc, len(enc)-1)
	padded := withLen(append(append([]byte(nil), enc...), 0, 0, 0, 0), len(enc)+4)
	badVersion := append([]byte(nil), enc...)
	badVersion[0] = 1
	f.Add(headerSeq(enc, minimal, enc, tsft, enc))
	f.Add(headerSeq(enc, shortLen, enc, shortLen[:len(enc)-1]))
	f.Add(headerSeq(enc, enc[:len(enc)-1], padded, enc))
	f.Add(headerSeq(enc, badVersion, enc))

	f.Fuzz(func(t *testing.T, raw []byte) {
		decoderLeg(t, raw)
		h, n, err := Decode(raw)
		if err != nil {
			return
		}
		if n < 8 || n > len(raw) {
			t.Fatalf("decoded length %d outside [8, %d]", n, len(raw))
		}
		re := h.Encode()
		h2, n2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded header does not decode: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-encoded header length %d, decoded %d", len(re), n2)
		}
		if h2 != h {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", h2, h)
		}
	})
}

// withLen returns a copy of a header with its length field set to n.
func withLen(h []byte, n int) []byte {
	h = append([]byte(nil), h...)
	binary.LittleEndian.PutUint16(h[2:4], uint16(n))
	return h
}

// headerSeq encodes headers in decoderLeg's sequence form: each one is
// a length byte followed by that many bytes.
func headerSeq(hs ...[]byte) []byte {
	var out []byte
	for _, h := range hs {
		out = append(append(out, byte(len(h))), h...)
	}
	return out
}

// decoderLeg makes FuzzParse differential: it splits the fuzz bytes
// into a sequence of headers (headerSeq's form, the last one cut to
// what remains) and runs one Decoder over the sequence twice, so every
// layout it learns is also hit. Each result must equal Decode's: the
// header, the length, and the error under errors.Is.
func decoderLeg(t *testing.T, raw []byte) {
	var hs [][]byte
	for len(raw) > 0 {
		n := min(int(raw[0]), len(raw)-1)
		hs = append(hs, raw[1:1+n])
		raw = raw[1+n:]
	}
	var d Decoder
	for pass := 0; pass < 2; pass++ {
		for i, h := range hs {
			got, gotN, gotErr := d.Decode(h)
			want, wantN, wantErr := Decode(h)
			if got != want || gotN != wantN || !sameError(gotErr, wantErr) {
				t.Fatalf("pass %d header %d (% x): Decoder = %+v, %d, %v; Decode = %+v, %d, %v",
					pass, i, h, got, gotN, gotErr, want, wantN, wantErr)
			}
		}
	}
}

// sameError reports whether a and b are both nil or match the same
// package errors.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, e := range []error{ErrTruncated, ErrBadVersion, ErrUnknownBits} {
		if errors.Is(a, e) != errors.Is(b, e) {
			return false
		}
	}
	return true
}

// FuzzParse finds its way here too: a deterministic spot-check that the
// corpus above round-trips byte-for-byte (Encode is canonical).
func TestEncodeCanonical(t *testing.T) {
	h := &Header{TSFT: 77, HasTSFT: true, AntSignal: -30, HasAntSignal: true}
	enc := h.Encode()
	h2, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.Encode(); !bytes.Equal(got, enc) {
		t.Fatalf("encode not canonical: %x vs %x", got, enc)
	}
}
