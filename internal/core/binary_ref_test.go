package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// loadBinaryReference is the byte-at-a-time binary loader LoadBinary
// replaced, kept as the oracle the windowed decoder must reproduce:
// every count is read by binary.ReadUvarint through the reader's
// ReadByte, and the decoded counts are copied into the histogram.
func loadBinaryReference(r io.Reader) (*Database, error) {
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
	if !(width > 0) || math.IsInf(width, 0) {
		return nil, corruptf("bin width %v out of range", width)
	}
	if _, err := io.ReadFull(br, fixed[:8]); err != nil {
		return nil, corruptf("reading log knee: %v", err)
	}
	knee := math.Float64frombits(binary.LittleEndian.Uint64(fixed[:8]))
	if !(knee >= 0) || math.IsInf(knee, 0) {
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
	for d := 0; d < devices; d++ {
		var addr dot11.Addr
		if _, err := io.ReadFull(br, addr[:]); err != nil {
			return nil, corruptf("device %d address: %v", d, err)
		}
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
			if sig.row(class) != nil {
				return nil, corruptf("device %v: duplicate frame class %v", addr, class)
			}
			dropped, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, corruptf("device %v class %v dropped count: %v", addr, class, err)
			}
			counts := make([]uint64, bins)
			for i := 0; i < bins; i++ {
				if counts[i], err = binary.ReadUvarint(br); err != nil {
					return nil, corruptf("device %v class %v bin %d: %v", addr, class, i, err)
				}
			}
			// The histogram gets its own copy, as the snapshot
			// constructor once made.
			h, err := histogram.FromSnapshot(histogram.Snapshot{BinWidth: width, Counts: slices.Clone(counts), Dropped: dropped})
			if err != nil {
				return nil, fmt.Errorf("%w: device %v class %v: %v", ErrBinaryDatabase, addr, class, err)
			}
			sig.setRow(class, classRow{counts: h.CountsView(), total: h.Total(), dropped: h.Dropped(), form: rowDense})
		}
		if err := db.Add(addr, sig); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBinaryDatabase, err)
		}
	}
	return db, nil
}

// loadBinaryEnsembleReference is LoadBinaryEnsemble over the reference
// member loader.
func loadBinaryEnsembleReference(r io.Reader) (*Ensemble, error) {
	br := bufio.NewReader(r)
	var head [10]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, corruptf("reading ensemble header: %v", err)
	}
	if [8]byte(head[:8]) != ensembleMagic {
		return nil, corruptf("bad ensemble magic %q", head[:8])
	}
	if head[8] != ensembleBinaryVersion {
		return nil, fmt.Errorf("%w: ensemble container %d (this build reads version %d)",
			ErrBinaryVersion, head[8], ensembleBinaryVersion)
	}
	n := int(head[9])
	if n < 1 || n > MaxEnsembleMembers {
		return nil, corruptf("ensemble member count %d out of range", n)
	}
	dbs := make([]*Database, n)
	for i := range dbs {
		db, err := loadBinaryReference(br)
		if err != nil {
			return nil, fmt.Errorf("core: ensemble member %d: %w", i, err)
		}
		dbs[i] = db
	}
	e, err := NewEnsembleFrom(dbs...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBinaryDatabase, err)
	}
	return e, nil
}

// readerVariants feeds the same bytes whole, one byte per Read and half
// a request per Read, so varints straddle the loader's buffered window
// at every offset.
func readerVariants(data []byte) map[string]io.Reader {
	return map[string]io.Reader{
		"direct":   bytes.NewReader(data),
		"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
		"half":     iotest.HalfReader(bytes.NewReader(data)),
	}
}

// sameLoad asserts the loader under test and the reference agree: the
// same error (message and type) or, on success, the same counts (see
// sameCounts) and byte-identical re-saves.
func sameLoad(t *testing.T, label string, want, got interface{ SaveBinary(io.Writer) error }, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, reference error %q", label, gotErr, wantErr)
		}
		for _, typed := range []error{ErrBinaryDatabase, ErrBinaryVersion} {
			if errors.Is(gotErr, typed) != errors.Is(wantErr, typed) {
				t.Fatalf("%s: error %v differs from reference %v in wrapping %v", label, gotErr, wantErr, typed)
			}
		}
		return
	}
	switch want := want.(type) {
	case *Database:
		sameCounts(t, label, want, got.(*Database))
	case *Ensemble:
		for i, db := range want.dbs {
			sameCounts(t, fmt.Sprintf("%s member %d", label, i), db, got.(*Ensemble).dbs[i])
		}
	}
	var wb, gb bytes.Buffer
	if err := want.SaveBinary(&wb); err != nil {
		t.Fatalf("%s: re-saving the reference's load: %v", label, err)
	}
	if err := got.SaveBinary(&gb); err != nil {
		t.Fatalf("%s: re-saving: %v", label, err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: re-save differs from the reference decoder's", label)
	}
}

// sameCounts asserts a database loaded in cell form holds exactly the
// reference decoder's dense histograms: per device and class the same
// count at every bin, the same totals and dropped counts, and cell rows
// whose bins ascend and whose counts are all non-zero.
func sameCounts(t *testing.T, label string, want, got *Database) {
	t.Helper()
	if !slices.Equal(want.order, got.order) {
		t.Fatalf("%s: devices %v, reference %v", label, got.order, want.order)
	}
	for _, addr := range want.order {
		ws, gs := want.refs[addr], got.refs[addr]
		if ws.total != gs.total || ws.nrows != gs.nrows {
			t.Fatalf("%s: device %v holds %d observations in %d classes, reference %d in %d",
				label, addr, gs.total, gs.nrows, ws.total, ws.nrows)
		}
		for c := range ws.slot {
			class := dot11.Class(c)
			wr, gr := ws.row(class), gs.row(class)
			if (wr != nil) != (gr != nil) {
				t.Fatalf("%s: device %v class %v present %v, reference %v", label, addr, class, gr != nil, wr != nil)
			}
			if wr == nil {
				continue
			}
			if gr.total != wr.total || gr.dropped != wr.dropped {
				t.Fatalf("%s: device %v class %v total/dropped %d/%d, reference %d/%d",
					label, addr, class, gr.total, gr.dropped, wr.total, wr.dropped)
			}
			if err := gr.check(gs.bins.Bins); err != nil {
				t.Fatalf("%s: device %v class %v: %v", label, addr, class, err)
			}
			if !slices.Equal(wr.dense(ws.bins.Bins), gr.dense(gs.bins.Bins)) {
				t.Fatalf("%s: device %v class %v counts differ from the reference decoder's", label, addr, class)
			}
		}
	}
}

// wideDB is a database whose bin count exceeds the loader's default
// buffer, with multi-byte counts, so its checkpoint exercises the
// grow-as-you-read path and varints straddling window ends even when
// read whole.
func wideDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase(Config{Param: ParamSize, Bins: BinSpec{Bins: 5000, Width: 1}, MinObservations: 1}, MeasureCosine)
	for d := 1; d <= 3; d++ {
		sig := NewSignature(ParamSize, db.Config().Bins)
		for k := 0; k < 400*d; k++ {
			sig.Add(dot11.ClassData, float64((k*37)%5000))
			sig.Add(dot11.ClassProbeReq, float64(4000+k%7))
		}
		if err := db.Add(dot11.LocalAddr(uint64(d)), sig); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestLoadBinaryHostileBinCount pins the header bound: a ~40-byte
// stream claiming a huge bin count must fail as corrupt without the
// loader allocating the claimed counts first. (Not parallel: it reads
// the process-wide allocation counter.)
func TestLoadBinaryHostileBinCount(t *testing.T) {
	for _, bins := range []int{maxBinaryBins, 4096} {
		var b bytes.Buffer
		b.Write(binaryMagic[:])
		b.WriteByte(binaryVersion)
		bw := bufio.NewWriter(&b)
		writeBinaryString(bw, ParamInterArrival.ShortName())
		writeBinaryString(bw, MeasureCosine.String())
		bw.Flush()
		var fixed [8]byte
		binary.LittleEndian.PutUint32(fixed[:4], uint32(bins))
		b.Write(fixed[:4])
		binary.LittleEndian.PutUint64(fixed[:], math.Float64bits(1))
		b.Write(fixed[:])
		binary.LittleEndian.PutUint64(fixed[:], 0) // knee
		b.Write(fixed[:])
		binary.LittleEndian.PutUint32(fixed[:4], 0) // minObs
		b.Write(fixed[:4])
		binary.LittleEndian.PutUint32(fixed[:4], 1) // devices
		b.Write(fixed[:4])
		b.Write([]byte{2, 0, 0, 0, 0, 1}) // address
		b.Write([]byte{1, byte(dot11.ClassData), 0, 1, 2, 3})
		data := b.Bytes()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 8; i++ { // checkpoint.Load retries every generation
			if _, err := LoadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBinaryDatabase) {
				t.Fatalf("bins=%d: error %v, want ErrBinaryDatabase", bins, err)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("bins=%d: %d-byte stream made 8 loads allocate %d bytes", bins, len(data), grew)
		}
	}
}

// TestLoadBinaryAllocs is the allocation guard: a load allocates O(1)
// per device and none per histogram (the cells come from shared
// chunks), so neither a counts slice per histogram nor the snapshot
// copy (a second one) can come back.
func TestLoadBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	db := NewDatabase(Config{Param: ParamSize, MinObservations: 1}, MeasureCosine)
	classes := []dot11.Class{dot11.ClassData, dot11.ClassQoSData, dot11.ClassNull, dot11.ClassProbeReq}
	for d := 1; d <= 64; d++ {
		sig := NewSignature(ParamSize, db.Config().Bins)
		for k := 0; k < 20+d; k++ {
			sig.Add(classes[k%(1+d%len(classes))], float64(31*k+d))
		}
		if err := db.Add(dot11.LocalAddr(uint64(d)), sig); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	hists := 0
	for _, addr := range db.order {
		hists += len(db.refs[addr].Classes())
	}
	devices := db.Len()
	// A Signature, its cell form and its rows per device; the constant
	// covers the reader, the header, the cell chunks and the growth
	// steps of the 64-device map and order slice.
	limit := float64(3*devices + 40)
	load := func(loader func(io.Reader) (*Database, error)) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := loader(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, ref := load(LoadBinary), load(loadBinaryReference)
	t.Logf("%d histograms over %d devices: LoadBinary %.0f allocs, copying reference %.0f, limit %.0f", hists, devices, got, ref, limit)
	if got > limit {
		t.Errorf("LoadBinary: %.0f allocs for %d histograms over %d devices, want ≤ %.0f", got, hists, devices, limit)
	}
	if ref <= limit {
		t.Errorf("guard has no teeth: the copying reference loader allocates %.0f ≤ %.0f", ref, limit)
	}
}

// FuzzLoadBinaryEnsemble pits LoadBinaryEnsemble against the reference
// decoder on two-member containers: the members sit back to back on
// one reader, so a member loader that reads past its own bytes breaks
// the second member.
func FuzzLoadBinaryEnsemble(f *testing.F) {
	e, err := NewEnsemble(MeasureCosine, Config{Param: ParamSize}, Config{Param: ParamRate})
	if err != nil {
		f.Fatal(err)
	}
	if err := e.Train(ensembleTrace()); err != nil {
		f.Fatal(err)
	}
	valid := savedBinary(f, e)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])

	wide, err := NewEnsembleFrom(wideDB(f), NewDatabase(Config{Param: ParamRate}, MeasureCosine))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(savedBinary(f, wide))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := loadBinaryEnsembleReference(bytes.NewReader(data))
		for name, r := range readerVariants(data) {
			got, err := LoadBinaryEnsemble(r)
			sameLoad(t, name, want, got, wantErr, err)
		}
	})
}
