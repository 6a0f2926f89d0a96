package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// Binary database codec. The JSON codec (Save/Load) stays the interop
// format — readable, diffable, stable — but it is far too slow and too
// large for the online trainer's checkpoint path, where a SIGHUP (or a
// graceful shutdown) must serialise thousands of references without
// stalling ingestion. SaveBinary/LoadBinary are the checkpoint codec:
// a versioned, length-delimited layout with varint-packed histogram
// counts, written and parsed in one streaming pass.
//
// Layout (version 1, little-endian, varints are unsigned LEB128):
//
//	magic   [7]byte "D11FPDB"
//	version u8      (1)
//	param   u8 len + bytes (short name, e.g. "iat")
//	measure u8 len + bytes (e.g. "cosine")
//	bins    u32     histogram bin count
//	width   f64     histogram bin width (IEEE-754 bits)
//	knee    f64     logarithmic-binning knee (0 = pure linear)
//	minObs  u32     minimum-observation rule
//	devices u32     reference count
//	  per device: addr [6]byte, classes u8,
//	    per class: class u8, dropped uvarint, bins × count uvarint
//
// Devices are written in insertion order and loaded back in that same
// order, so a binary round trip reproduces the similarity-vector order
// (and with it MatchAll output) bit-identically.

// binaryMagic identifies a binary reference database stream.
var binaryMagic = [7]byte{'D', '1', '1', 'F', 'P', 'D', 'B'}

// binaryVersion is the current format version.
const binaryVersion = 1

// ErrBinaryDatabase reports a corrupt or truncated binary database.
// All LoadBinary corruption errors wrap it, so callers can distinguish
// bad bytes from I/O failures with errors.Is.
var ErrBinaryDatabase = errors.New("core: corrupt binary database")

// ErrBinaryVersion reports a well-formed binary database written by a
// newer format version than this build understands.
var ErrBinaryVersion = errors.New("core: unsupported binary database version")

// corruptf wraps a corruption detail in ErrBinaryDatabase.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBinaryDatabase, fmt.Sprintf(format, args...))
}

// Decode-time sanity bounds: a hostile header must not be able to make
// the loader allocate more than a handful of bytes before the stream
// proves it actually carries that much data (readCounts sizes each
// histogram by the bytes it has seen, not by the claimed bin count).
const (
	maxBinaryBins    = 1 << 20 // 8 MiB of counts per histogram, far above any real shape
	maxBinaryNameLen = 64
)

// SaveBinary serialises the database in the binary checkpoint format.
func (db *Database) SaveBinary(w io.Writer) error {
	// Save-side mirror of the loader's header bounds: the saver must
	// never emit a checkpoint LoadBinary will reject, or the learned
	// references are unrecoverable exactly when they are needed.
	switch {
	case db.cfg.Bins.Bins <= 0 || db.cfg.Bins.Bins > maxBinaryBins:
		return fmt.Errorf("core: bin count %d outside the binary format's bounds", db.cfg.Bins.Bins)
	case !(db.cfg.Bins.Width > 0) || math.IsInf(db.cfg.Bins.Width, 0):
		return fmt.Errorf("core: bin width %v outside the binary format's bounds", db.cfg.Bins.Width)
	case !(db.cfg.Bins.LogKnee >= 0) || math.IsInf(db.cfg.Bins.LogKnee, 0):
		return fmt.Errorf("core: log knee %v outside the binary format's bounds", db.cfg.Bins.LogKnee)
	case db.cfg.MinObservations < 0 || db.cfg.MinObservations > 1<<30:
		return fmt.Errorf("core: minimum observations %d outside the binary format's bounds", db.cfg.MinObservations)
	case len(db.order) > math.MaxUint32:
		return fmt.Errorf("core: %d devices overflow the binary format's count field", len(db.order))
	}
	bw := bufio.NewWriter(w)
	bw.Write(binaryMagic[:])
	bw.WriteByte(binaryVersion)
	if err := writeBinaryString(bw, db.cfg.Param.ShortName()); err != nil {
		return err
	}
	if err := writeBinaryString(bw, db.measure.String()); err != nil {
		return err
	}

	var fixed [8]byte
	binary.LittleEndian.PutUint32(fixed[:4], uint32(db.cfg.Bins.Bins))
	bw.Write(fixed[:4])
	binary.LittleEndian.PutUint64(fixed[:], math.Float64bits(db.cfg.Bins.Width))
	bw.Write(fixed[:8])
	binary.LittleEndian.PutUint64(fixed[:], math.Float64bits(db.cfg.Bins.LogKnee))
	bw.Write(fixed[:8])
	binary.LittleEndian.PutUint32(fixed[:4], uint32(db.cfg.MinObservations))
	bw.Write(fixed[:4])
	binary.LittleEndian.PutUint32(fixed[:4], uint32(len(db.order)))
	bw.Write(fixed[:4])

	var varint [binary.MaxVarintLen64]byte
	for _, addr := range db.order {
		sig := db.refs[addr]
		bw.Write(addr[:])
		classes := sig.Classes()
		bw.WriteByte(byte(len(classes)))
		for _, class := range classes {
			h := sig.Hist(class)
			bw.WriteByte(byte(class))
			bw.Write(varint[:binary.PutUvarint(varint[:], h.Dropped())])
			for _, c := range h.CountsView() {
				bw.Write(varint[:binary.PutUvarint(varint[:], c)])
			}
		}
	}
	return bw.Flush()
}

// writeBinaryString writes a u8-length-prefixed string, enforcing the
// same bound readBinaryString applies — the saver must never emit a
// checkpoint the loader will reject.
func writeBinaryString(bw *bufio.Writer, s string) error {
	if len(s) > maxBinaryNameLen {
		return fmt.Errorf("core: binary database name %q exceeds %d bytes", s, maxBinaryNameLen)
	}
	bw.WriteByte(byte(len(s)))
	bw.WriteString(s)
	return nil
}

// LoadBinary reads a database written by SaveBinary. Corrupt input is
// reported as a typed error (ErrBinaryDatabase or ErrBinaryVersion) —
// the loader never panics and never trusts a header field it has not
// bounded, since checkpoints cross a trust boundary like every file.
// Handed a *bufio.Reader of at least the default size, it reads through
// that reader and consumes exactly the database's bytes, so several
// databases can be read back to back from one stream.
func LoadBinary(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, corruptf("reading header: %v", err)
	}
	if [7]byte(magic[:7]) != binaryMagic {
		return nil, corruptf("bad magic %q", magic[:7])
	}
	if magic[7] != binaryVersion {
		return nil, fmt.Errorf("%w: %d (this build reads version %d)", ErrBinaryVersion, magic[7], binaryVersion)
	}
	paramName, err := readBinaryString(br, "parameter name")
	if err != nil {
		return nil, err
	}
	measureName, err := readBinaryString(br, "measure name")
	if err != nil {
		return nil, err
	}
	param, err := ParamByShortName(paramName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBinaryDatabase, err)
	}
	measure, err := MeasureByName(measureName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBinaryDatabase, err)
	}

	var fixed [8]byte
	if _, err := io.ReadFull(br, fixed[:4]); err != nil {
		return nil, corruptf("reading bin count: %v", err)
	}
	bins := int(binary.LittleEndian.Uint32(fixed[:4]))
	if bins <= 0 || bins > maxBinaryBins {
		return nil, corruptf("bin count %d out of range", bins)
	}
	if _, err := io.ReadFull(br, fixed[:8]); err != nil {
		return nil, corruptf("reading bin width: %v", err)
	}
	width := math.Float64frombits(binary.LittleEndian.Uint64(fixed[:8]))
	if !(width > 0) || math.IsInf(width, 0) { // rejects NaN, zero, negatives
		return nil, corruptf("bin width %v out of range", width)
	}
	if _, err := io.ReadFull(br, fixed[:8]); err != nil {
		return nil, corruptf("reading log knee: %v", err)
	}
	knee := math.Float64frombits(binary.LittleEndian.Uint64(fixed[:8]))
	if !(knee >= 0) || math.IsInf(knee, 0) { // rejects NaN, negatives
		return nil, corruptf("log knee %v out of range", knee)
	}
	if _, err := io.ReadFull(br, fixed[:4]); err != nil {
		return nil, corruptf("reading minimum observations: %v", err)
	}
	minObs := int(binary.LittleEndian.Uint32(fixed[:4]))
	if minObs < 0 || minObs > 1<<30 {
		return nil, corruptf("minimum observations %d out of range", minObs)
	}
	if _, err := io.ReadFull(br, fixed[:4]); err != nil {
		return nil, corruptf("reading device count: %v", err)
	}
	devices := int(binary.LittleEndian.Uint32(fixed[:4]))
	if devices < 0 {
		return nil, corruptf("device count %d out of range", devices)
	}

	cfg := Config{Param: param, Bins: BinSpec{Bins: bins, Width: width, LogKnee: knee}, MinObservations: minObs}
	db := NewDatabase(cfg, measure)
	// The device loop allocates per device actually present in the
	// stream, never from the claimed count alone: a huge count over a
	// short stream fails at the first missing byte.
	for d := 0; d < devices; d++ {
		if _, err := io.ReadFull(br, fixed[:6]); err != nil {
			return nil, corruptf("device %d address: %v", d, err)
		}
		addr := dot11.Addr(fixed[:6])
		if db.refs[addr] != nil {
			return nil, corruptf("duplicate device %v", addr)
		}
		nClasses, err := br.ReadByte()
		if err != nil {
			return nil, corruptf("device %v class count: %v", addr, err)
		}
		if int(nClasses) > dot11.NumClasses {
			return nil, corruptf("device %v claims %d frame classes (max %d)", addr, nClasses, dot11.NumClasses)
		}
		sig := NewSignature(param, cfg.Bins)
		for k := 0; k < int(nClasses); k++ {
			cb, err := br.ReadByte()
			if err != nil {
				return nil, corruptf("device %v class id: %v", addr, err)
			}
			class := dot11.Class(cb)
			if int(cb) >= dot11.NumClasses {
				return nil, corruptf("device %v: unknown frame class %d", addr, cb)
			}
			if sig.Hist(class) != nil {
				return nil, corruptf("device %v: duplicate frame class %v", addr, class)
			}
			dropped, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, corruptf("device %v class %v dropped count: %v", addr, class, err)
			}
			counts, bin, err := readCounts(br, bins)
			if err != nil {
				return nil, corruptf("device %v class %v bin %d: %v", addr, class, bin, err)
			}
			h, err := histogram.FromSnapshot(histogram.Snapshot{BinWidth: width, Counts: counts, Dropped: dropped})
			if err != nil {
				return nil, fmt.Errorf("%w: device %v class %v: %v", ErrBinaryDatabase, addr, class, err)
			}
			sig.setHist(class, &h)
		}
		if err := db.Add(addr, sig); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBinaryDatabase, err)
		}
	}
	return db, nil
}

// readCounts decodes one histogram's bins uvarint counts straight out
// of br's buffered window (Peek + Discard) instead of one ReadByte
// interface call per byte. A one-byte varint — most counts are small,
// most are zero — costs one compare; eight in a row cost one word
// test, and a zero word (eight empty bins) is skipped outright because
// the slice is freshly zeroed. A longer varint goes through
// binary.Uvarint on the window. A varint that straddles the window's
// end, or a malformed one, is read by binary.ReadUvarint, so every
// error is exactly the one a byte-at-a-time decode reports; on failure
// readCounts returns the failing bin's index with it. It consumes
// exactly the counts' bytes, so callers sharing br (the ensemble
// container, codec sniffing) read on from the next field.
//
// The counts slice is allocated only once the stream has shown it
// carries at least bins bytes (every varint takes one or more): Peek
// proves it up front when bins fits the buffer, and above that the
// slice grows by at most the bytes each window shows. A hostile header
// claiming maxBinaryBins over a short stream thus allocates a few
// bytes, not 8 MiB.
func readCounts(br *bufio.Reader, bins int) ([]uint64, int, error) {
	var counts []uint64
	if bins <= br.Size() {
		win, err := br.Peek(bins)
		if err != nil {
			// Fewer than bins bytes remain, so the stream cannot carry
			// bins varints: find the failing bin without allocating.
			bin, err := shortCounts(win, err)
			return nil, bin, err
		}
		counts = make([]uint64, bins)
	}
	i := 0 // next bin
	for i < bins {
		if br.Buffered() == 0 {
			if _, err := br.Peek(1); err != nil {
				return nil, i, err // what ReadUvarint reports at a varint's first byte
			}
		}
		win, _ := br.Peek(br.Buffered())
		if n := min(i+len(win), bins); n > len(counts) {
			counts = append(counts, make([]uint64, n-len(counts))...)
		}
		// Every varint in win takes a byte or more, so counts has room
		// for all of them: the loop stops at a full histogram or at the
		// window's end.
		pos := 0
		for pos < len(win) && i < len(counts) {
			if pos+8 <= len(win) && i+8 <= len(counts) {
				w := binary.LittleEndian.Uint64(win[pos:])
				if w&0x8080808080808080 == 0 {
					if w != 0 {
						c := counts[i : i+8]
						for k := range c {
							c[k] = uint64(byte(w >> (8 * k)))
						}
					}
					i += 8
					pos += 8
					continue
				}
			}
			if b := win[pos]; b < 0x80 {
				counts[i] = uint64(b)
				i++
				pos++
				continue
			}
			v, n := binary.Uvarint(win[pos:])
			if n <= 0 {
				break // straddles the window's end, or malformed
			}
			counts[i] = v
			i++
			pos += n
		}
		br.Discard(pos)
		if pos < len(win) && i < bins {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, i, err
			}
			counts[i] = v
			i++
		}
	}
	return counts, 0, nil
}

// shortCounts decodes a stream that holds only win before failing with
// err, one byte at a time, and returns the bin whose varint fails and
// the error ReadUvarint reports there.
func shortCounts(win []byte, err error) (int, error) {
	tail := &tailReader{b: win, err: err}
	for bin := 0; ; bin++ {
		if _, err := binary.ReadUvarint(tail); err != nil {
			return bin, err
		}
	}
}

// tailReader yields a window's bytes, then the error that ended it.
type tailReader struct {
	b   []byte
	err error
}

func (t *tailReader) ReadByte() (byte, error) {
	if len(t.b) == 0 {
		return 0, t.err
	}
	c := t.b[0]
	t.b = t.b[1:]
	return c, nil
}

// readBinaryString reads a u8-length-prefixed string.
func readBinaryString(br *bufio.Reader, what string) (string, error) {
	n, err := br.ReadByte()
	if err != nil {
		return "", corruptf("reading %s length: %v", what, err)
	}
	if int(n) > maxBinaryNameLen {
		return "", corruptf("%s length %d out of range", what, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", corruptf("reading %s: %v", what, err)
	}
	return string(buf), nil
}
