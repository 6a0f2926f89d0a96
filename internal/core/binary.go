package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"dot11fp/internal/dot11"
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
// proves it actually carries that much data (cellArena.read keeps only
// the non-zero counts the stream has shown, not the claimed bins).
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
			r := sig.row(class)
			bw.WriteByte(byte(class))
			bw.Write(varint[:binary.PutUvarint(varint[:], r.dropped)])
			k := 0 // next stored entry; a cell row's gaps are written as zeros
			for j := 0; j < db.cfg.Bins.Bins; j++ {
				var c uint64
				if k < len(r.counts) {
					if bin, n := r.cell(k); bin == j {
						c = n
						k++
					}
				}
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
	var arena cellArena
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
		var seen [dot11.NumClasses]bool // the device's classes so far
		for k := 0; k < int(nClasses); k++ {
			cb, err := br.ReadByte()
			if err != nil {
				return nil, corruptf("device %v class id: %v", addr, err)
			}
			class := dot11.Class(cb)
			if int(cb) >= dot11.NumClasses {
				return nil, corruptf("device %v: unknown frame class %d", addr, cb)
			}
			if seen[class] {
				return nil, corruptf("device %v: duplicate frame class %v", addr, class)
			}
			seen[class] = true
			dropped, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, corruptf("device %v class %v dropped count: %v", addr, class, err)
			}
			total, bin, err := arena.read(br, bins)
			if err != nil {
				return nil, corruptf("device %v class %v bin %d: %v", addr, class, bin, err)
			}
			r := classRow{counts: arena.cells(), total: total, dropped: dropped, form: rowShared}
			if len(arena.wide) > 0 || 2*len(r.counts) > bins {
				// Past half full, dense counts cost at most twice the
				// cells and index in O(1); a count too large for a cell
				// needs them anyway.
				r.counts, r.form = r.dense(bins), rowDense
				for _, w := range arena.wide {
					r.counts[w.bin] = w.n
				}
			} else {
				arena.keep()
			}
			sig.setRow(class, r)
		}
		if err := db.Add(addr, sig); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBinaryDatabase, err)
		}
	}
	return db, nil
}

// cellArena holds a load's decoded cells in chunks shared by the
// histograms they hold, so a load allocates per chunk, not per
// histogram. The cells of buf from start on are the histogram being decoded;
// wide holds its counts too large for a cell (their cells read 0).
type cellArena struct {
	buf   []uint64
	start int
	wide  []wideCount
}

// wideCount is one count past cellMax, with its bin.
type wideCount struct {
	bin int
	n   uint64
}

// push appends one non-zero count of the histogram being decoded.
func (a *cellArena) push(bin int, c uint64) {
	if c > cellMax {
		a.wide = append(a.wide, wideCount{bin, c})
		c = 0
	}
	if len(a.buf) == cap(a.buf) {
		// Move the histogram's cells to a fresh chunk (256 cells
		// doubling to 64 Ki); the old one stays with the kept ones.
		live := len(a.buf) - a.start
		size := max(min(2*cap(a.buf), 1<<16), 256, 2*live)
		a.buf = append(make([]uint64, 0, size), a.buf[a.start:]...)
		a.start = 0
	}
	a.buf = append(a.buf, uint64(bin)<<cellShift|c)
}

// cells returns the histogram just read, capped so an append cannot
// reach the next one's; keep hands them over for good, and cells not
// kept are overwritten by the next read.
func (a *cellArena) cells() []uint64 {
	n := len(a.buf)
	return a.buf[a.start:n:n]
}

func (a *cellArena) keep() { a.start = len(a.buf) }

// read decodes one histogram's bins uvarint counts straight out of br's
// buffered window (Peek + Discard) and pushes only the non-zero ones: a
// zero is never written to memory, and eight one-byte zeros cost one
// word test. A varint that straddles the window's end, or a malformed
// one, goes through binary.ReadUvarint, so every error is the one a
// byte-at-a-time decode reports, returned with the failing bin. It
// consumes exactly the counts' bytes (ensemble members and codec
// sniffing share br) and returns their sum. Memory follows the bytes
// the stream has shown, not the claimed bin count.
func (a *cellArena) read(br *bufio.Reader, bins int) (uint64, int, error) {
	a.buf, a.wide = a.buf[:a.start], a.wide[:0]
	var total uint64
	i := 0 // next bin
	for i < bins {
		if br.Buffered() == 0 {
			if _, err := br.Peek(1); err != nil {
				return 0, i, err // what ReadUvarint reports at a varint's first byte
			}
		}
		win, _ := br.Peek(br.Buffered())
		pos := 0
		for pos < len(win) && i < bins {
			if pos+8 <= len(win) && i+8 <= bins {
				w := binary.LittleEndian.Uint64(win[pos:])
				if w&0x8080808080808080 == 0 {
					for w != 0 { // one pass per non-zero byte
						k := bits.TrailingZeros64(w) / 8
						c := w >> (8 * k) & 0xff
						w &^= 0xff << (8 * k)
						a.push(i+k, c)
						total += c
					}
					i += 8
					pos += 8
					continue
				}
			}
			if b := win[pos]; b < 0x80 {
				if b != 0 {
					a.push(i, uint64(b))
					total += uint64(b)
				}
				i++
				pos++
				continue
			}
			v, n := binary.Uvarint(win[pos:])
			if n <= 0 {
				break // straddles the window's end, or malformed
			}
			if v != 0 { // a zero can take several bytes in a non-canonical varint
				a.push(i, v)
				total += v
			}
			i++
			pos += n
		}
		br.Discard(pos)
		if pos < len(win) && i < bins {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return 0, i, err
			}
			if v != 0 {
				a.push(i, v)
				total += v
			}
			i++
		}
	}
	return total, 0, nil
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
