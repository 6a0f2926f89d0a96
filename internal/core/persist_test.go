package core

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"dot11fp/internal/dot11"
)

// roundTrip serialises db with save, reloads it with load, and asserts
// the reloaded database reproduces the original's MatchAll output
// bit-identically — same reference order, same score bits — which is
// the property checkpoint/restore must preserve.
func roundTrip(t *testing.T, label string, db *Database, cands []Candidate,
	save func(*Database, *bytes.Buffer) error, load func([]byte) (*Database, error)) *Database {
	t.Helper()
	var buf bytes.Buffer
	if err := save(db, &buf); err != nil {
		t.Fatalf("%s save: %v", label, err)
	}
	loaded, err := load(buf.Bytes())
	if err != nil {
		t.Fatalf("%s load: %v", label, err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("%s: loaded %d references, want %d", label, loaded.Len(), db.Len())
	}
	if loaded.Config() != db.Config() || loaded.Measure() != db.Measure() {
		t.Fatalf("%s: loaded config %+v/%v, want %+v/%v",
			label, loaded.Config(), loaded.Measure(), db.Config(), db.Measure())
	}
	want := db.Compile().MatchAll(cands)
	got := loaded.Compile().MatchAll(cands)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: candidate %d has %d scores, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] { // exact equality: bit-identical similarity AND order
				t.Fatalf("%s: candidate %d score %d = %+v, want %+v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
	return loaded
}

// TestDatabaseRoundTripBitIdentical is the missing Save → Load →
// Compile → MatchAll proof for both codecs: a serialised database —
// JSON or binary — must reproduce every similarity score bit for bit.
// (Binary additionally preserves insertion order as written; JSON
// reloads in ascending address order, so the check runs against a
// database whose insertion order is already sorted, as Train produces.)
func TestDatabaseRoundTripBitIdentical(t *testing.T) {
	t.Parallel()
	for _, m := range []Measure{MeasureCosine, MeasureIntersection, MeasureBhattacharyya, MeasureL1} {
		db, cands := trainedDB(t, m)
		label := "measure=" + m.String()
		roundTrip(t, label+"/json", db, cands,
			func(db *Database, buf *bytes.Buffer) error { return db.Save(buf) },
			func(b []byte) (*Database, error) { return Load(bytes.NewReader(b)) })
		roundTrip(t, label+"/binary", db, cands,
			func(db *Database, buf *bytes.Buffer) error { return db.SaveBinary(buf) },
			func(b []byte) (*Database, error) { return LoadBinary(bytes.NewReader(b)) })
	}
}

// TestBinaryPreservesInsertionOrder pins the property that makes the
// binary codec the checkpoint format: references come back in the
// exact order they were written, so similarity vectors keep their
// positions across a restart even when insertion order was not sorted.
func TestBinaryPreservesInsertionOrder(t *testing.T) {
	t.Parallel()
	cfg := Config{Param: ParamSize, MinObservations: 1}
	db := NewDatabase(cfg, MeasureCosine)
	// Deliberately descending insertion order.
	for i := 5; i >= 1; i-- {
		sig := NewSignature(ParamSize, db.Config().Bins)
		for k := 0; k < 10+i; k++ {
			sig.Add(dot11.ClassData, float64(100*i+k))
		}
		if err := db.Add(dot11.LocalAddr(uint64(i)), sig); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, got := db.Devices(), loaded.Devices()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("device %d = %v, want %v (insertion order lost)", i, got[i], want[i])
		}
	}
}

// TestLoadBinaryRejectsCorruption walks the typed-error contract over a
// catalogue of corrupt inputs: every one must fail with
// ErrBinaryDatabase (or ErrBinaryVersion), never panic, never succeed.
func TestLoadBinaryRejectsCorruption(t *testing.T) {
	t.Parallel()
	db, _ := trainedDB(t, MeasureCosine)
	var buf bytes.Buffer
	if err := db.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(f func(b []byte) []byte) []byte {
		b := make([]byte, len(valid))
		copy(b, valid)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short magic":       valid[:4],
		"bad magic":         mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"truncated header":  valid[:12],
		"truncated mid-way": valid[:len(valid)/2],
		"truncated tail":    valid[:len(valid)-1],
		"device overclaim": mutate(func(b []byte) []byte {
			// The device-count field sits after magic(8) + two
			// length-prefixed names + bins(4) + width(8) + knee(8) + minObs(4).
			off := 8 + 1 + int(valid[8]) + 1
			off += int(valid[off-1]) + 4 + 8 + 8 + 4
			b[off] = 0xff
			b[off+1] = 0xff
			b[off+2] = 0xff
			b[off+3] = 0x7f
			return b
		}),
	}
	for name, input := range cases {
		if _, err := LoadBinary(bytes.NewReader(input)); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		} else if !errors.Is(err, ErrBinaryDatabase) {
			t.Errorf("%s: error %v is not ErrBinaryDatabase", name, err)
		}
	}

	future := mutate(func(b []byte) []byte { b[7] = binaryVersion + 1; return b })
	if _, err := LoadBinary(bytes.NewReader(future)); !errors.Is(err, ErrBinaryVersion) {
		t.Errorf("future version: error %v is not ErrBinaryVersion", err)
	}
}

// TestWriteBinaryStringBound pins the save-side name bound: the saver
// must reject a name longer than maxBinaryNameLen rather than truncate
// its u8 length prefix into a checkpoint LoadBinary cannot parse.
func TestWriteBinaryStringBound(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeBinaryString(bw, strings.Repeat("x", maxBinaryNameLen)); err != nil {
		t.Fatalf("name at the bound rejected: %v", err)
	}
	if err := writeBinaryString(bw, strings.Repeat("x", maxBinaryNameLen+1)); err == nil {
		t.Fatal("name over the bound accepted")
	}
}

// TestSaveBinaryHeaderBounds pins the save-side mirror of the loader's
// header bounds: a database whose configuration the loader would reject
// must fail at save time, not strand an unreloadable checkpoint.
func TestSaveBinaryHeaderBounds(t *testing.T) {
	t.Parallel()
	cases := map[string]Config{
		"oversized bins": {Param: ParamSize, Bins: BinSpec{Bins: maxBinaryBins + 1, Width: 1}},
		"zero width":     {Param: ParamSize, Bins: BinSpec{Bins: 8, Width: 0}},
		"negative knee":  {Param: ParamSize, Bins: BinSpec{Bins: 8, Width: 1, LogKnee: -1}},
		"huge min obs":   {Param: ParamSize, Bins: BinSpec{Bins: 8, Width: 1}, MinObservations: 1<<30 + 1},
	}
	for name, cfg := range cases {
		db := NewDatabase(cfg, MeasureCosine)
		var buf bytes.Buffer
		if err := db.SaveBinary(&buf); err == nil {
			t.Errorf("%s: SaveBinary wrote a checkpoint LoadBinary rejects", name)
		}
	}
}

// FuzzLoadBinary hammers the binary loader with mutated checkpoints:
// it must never panic, corrupt input must surface as a typed error,
// and anything it does accept must survive a canonical re-save →
// re-load cycle byte-for-byte (the checkpoint fixpoint property). It is
// also differential: every input is decoded by the byte-at-a-time
// reference loader too, fed whole, one byte per Read and half a
// request per Read, and the outcomes must match exactly — the same
// error, or byte-identical re-saves.
func FuzzLoadBinary(f *testing.F) {
	db, _ := trainedDB(f, MeasureCosine)
	valid := savedBinary(f, db)
	f.Add(valid)
	f.Add(valid[:16])
	for _, cut := range []int{5, 300} { // streams ending inside the last histogram
		f.Add(valid[:len(valid)-cut])
	}
	f.Add([]byte("D11FPDB\x01"))
	f.Add([]byte{})
	f.Add(savedBinary(f, NewDatabase(Config{Param: ParamSize}, MeasureCosine)))
	wide := savedBinary(f, wideDB(f))
	f.Add(wide)
	f.Add(wide[:len(wide)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := loadBinaryReference(bytes.NewReader(data))
		for name, r := range readerVariants(data) {
			got, err := LoadBinary(r)
			sameLoad(t, name, want, got, wantErr, err)
		}
		if wantErr != nil {
			if !errors.Is(wantErr, ErrBinaryDatabase) && !errors.Is(wantErr, ErrBinaryVersion) {
				t.Fatalf("untyped load error: %v", wantErr)
			}
			return
		}
		var first bytes.Buffer
		if err := want.SaveBinary(&first); err != nil {
			t.Fatalf("re-saving an accepted database: %v", err)
		}
		again, err := LoadBinary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-loading a canonical save: %v", err)
		}
		var second bytes.Buffer
		if err := again.SaveBinary(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("canonical form is not a fixpoint")
		}
	})
}

// savedBinary returns db's binary checkpoint in a slice of its own:
// fuzz seeds are kept by reference, so they must not share a buffer
// that a later save overwrites.
func savedBinary(t testing.TB, db interface{ SaveBinary(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
