package cmdutil

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dot11fp"
	"dot11fp/internal/checkpoint"
	"dot11fp/internal/dot11"
)

// sliceSource replays a fixed record slice as a RecordSource.
type sliceSource struct {
	recs []dot11fp.Record
	i    int
}

func (s *sliceSource) Next() (dot11fp.Record, error) {
	if s.i >= len(s.recs) {
		return dot11fp.Record{}, io.EOF
	}
	s.i++
	return s.recs[s.i-1], nil
}

// trainRecords synthesises a stream with two dense senders spanning
// spanSec seconds.
func trainRecords(t *testing.T, spanSec int) []dot11fp.Record {
	t.Helper()
	a, err := dot11fp.ParseAddr("02:00:00:00:00:01")
	if err != nil {
		t.Fatal(err)
	}
	b, err := dot11fp.ParseAddr("02:00:00:00:00:02")
	if err != nil {
		t.Fatal(err)
	}
	var recs []dot11fp.Record
	for i := 0; i < spanSec*100; i++ {
		sender, size := a, 200
		if i%2 == 1 {
			sender, size = b, 900
		}
		recs = append(recs, dot11fp.Record{
			T: int64(i) * 10_000, Sender: sender,
			Size: size, RateMbps: 24, FCSOK: true,
		})
	}
	return recs
}

// singleParam is the single-parameter training shorthand of the tests.
var singleParam = []dot11fp.Param{dot11fp.ParamSize}

func TestTrainFromStream(t *testing.T) {
	t.Parallel()
	recs := trainRecords(t, 120)
	refs, pending, err := TrainFromStream(&sliceSource{recs: recs}, time.Minute, singleParam, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	if refs.DB == nil || refs.Len() != 2 {
		t.Fatalf("trained %d references, want 2 (db=%v)", refs.Len(), refs.DB)
	}
	if pending == nil {
		t.Fatal("no boundary record returned")
	}
	// The boundary record is the first past the prefix: nothing inside
	// the prefix may leak into monitoring, nothing past it into training.
	if cut := recs[0].T + time.Minute.Microseconds(); pending.T < cut {
		t.Fatalf("boundary record at %d is inside the %d prefix", pending.T, cut)
	}
	// A parameter list trains a fused ensemble over the same prefix.
	fused, _, err := TrainFromStream(&sliceSource{recs: recs}, time.Minute,
		[]dot11fp.Param{dot11fp.ParamSize, dot11fp.ParamRate}, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Ens == nil || !fused.Multi() || fused.Len() != 2 {
		t.Fatalf("fused training: multi=%v len=%d", fused.Multi(), fused.Len())
	}
	if got := fused.Configs(); len(got) != 2 || got[0].Param != dot11fp.ParamSize || got[1].Param != dot11fp.ParamRate {
		t.Fatalf("fused configs = %v", got)
	}
}

func TestTrainFromStreamErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		recs []dot11fp.Record
		want string
	}{
		"empty stream":     {nil, "training prefix"},
		"truncated stream": {trainRecords(t, 30), "training prefix"},
	}
	for name, tc := range cases {
		_, _, err := TrainFromStream(&sliceSource{recs: tc.recs}, time.Minute, singleParam, dot11fp.MeasureCosine)
		if err == nil {
			t.Errorf("%s: no error", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestParseParams pins the -param comma syntax.
func TestParseParams(t *testing.T) {
	t.Parallel()
	got, err := ParseParams("rate,size,iat")
	if err != nil {
		t.Fatal(err)
	}
	want := []dot11fp.Param{dot11fp.ParamRate, dot11fp.ParamSize, dot11fp.ParamInterArrival}
	if len(got) != len(want) {
		t.Fatalf("ParseParams = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseParams[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got, err := ParseParams(" size "); err != nil || len(got) != 1 || got[0] != dot11fp.ParamSize {
		t.Fatalf("single padded name: %v, %v", got, err)
	}
	for _, bad := range []string{"", "size,", "size,size", "size,bogus", ",iat"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) accepted", bad)
		}
	}
}

func TestParseMergeMode(t *testing.T) {
	t.Parallel()
	if m, err := ParseMergeMode("time"); err != nil || m != dot11fp.MergeByTime {
		t.Fatalf("time: %v, %v", m, err)
	}
	if m, err := ParseMergeMode("arrival"); err != nil || m != dot11fp.MergeArrival {
		t.Fatalf("arrival: %v, %v", m, err)
	}
	if _, err := ParseMergeMode("chronological"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestEnrollFlagsValidate is the table-driven flag-validation test for
// the shared -enroll cluster.
func TestEnrollFlagsValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		flags EnrollFlags
		ok    bool
	}{
		{"disabled default", EnrollFlags{Enroll: false, Windows: 1}, true},
		{"enabled default horizon", EnrollFlags{Enroll: true, Windows: 1}, true},
		{"enabled multi-window", EnrollFlags{Enroll: true, Windows: 5}, true},
		{"zero horizon", EnrollFlags{Enroll: true, Windows: 0}, false},
		{"negative horizon", EnrollFlags{Enroll: true, Windows: -2}, false},
		{"horizon without enroll", EnrollFlags{Enroll: false, Windows: 3}, false},
	}
	for _, tc := range cases {
		if err := tc.flags.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestEnrollFlagsNewTrainer(t *testing.T) {
	t.Parallel()
	cfgs := []dot11fp.Config{dot11fp.DefaultConfig(dot11fp.ParamSize)}
	f := EnrollFlags{Enroll: true, Windows: 3}
	cold, err := f.NewTrainer(cfgs, dot11fp.MeasureCosine, References{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().Refs != 0 {
		t.Fatalf("cold trainer starts with %d refs", cold.Stats().Refs)
	}
	seed, _, err := TrainFromStream(&sliceSource{recs: trainRecords(t, 120)}, time.Minute, singleParam, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := f.NewTrainer(cfgs, dot11fp.MeasureCosine, seed)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats().Refs != seed.Len() {
		t.Fatalf("warm trainer has %d refs, want %d", warm.Stats().Refs, seed.Len())
	}
	// Fused flavours: cold ensemble trainer, and a warm one from an
	// ensemble seed.
	fusedCfgs := []dot11fp.Config{
		dot11fp.DefaultConfig(dot11fp.ParamSize),
		dot11fp.DefaultConfig(dot11fp.ParamRate),
	}
	fusedCold, err := f.NewTrainer(fusedCfgs, dot11fp.MeasureCosine, References{})
	if err != nil {
		t.Fatal(err)
	}
	if fusedCold.Ensemble() == nil {
		t.Fatal("fused cold trainer is not an ensemble trainer")
	}
	fusedSeed, _, err := TrainFromStream(&sliceSource{recs: trainRecords(t, 120)}, time.Minute,
		[]dot11fp.Param{dot11fp.ParamSize, dot11fp.ParamRate}, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	fusedWarm, err := f.NewTrainer(fusedCfgs, dot11fp.MeasureCosine, fusedSeed)
	if err != nil {
		t.Fatal(err)
	}
	if fusedWarm.Stats().Refs != fusedSeed.Len() {
		t.Fatalf("fused warm trainer has %d refs, want %d", fusedWarm.Stats().Refs, fusedSeed.Len())
	}
}

// TestDatabaseFileRoundTrip covers a single database through
// SaveReferencesCheckpoint/LoadReferencesChain: codec selection by
// extension, codec sniffing on load, and atomic replacement of an
// existing checkpoint.
func TestDatabaseFileRoundTrip(t *testing.T) {
	t.Parallel()
	refs, _, err := TrainFromStream(&sliceSource{recs: trainRecords(t, 120)}, time.Minute, singleParam, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	seed := refs.DB
	save := func(path string) error { return SaveReferencesCheckpoint(path, refs, checkpoint.Options{}) }
	load := func(path string) (*dot11fp.Database, error) {
		loaded, _, err := LoadReferencesChain(path, checkpoint.Options{})
		return loaded.DB, err
	}
	dir := t.TempDir()
	for _, name := range []string{"ref.json", "ref.db"} {
		path := filepath.Join(dir, name)
		// Twice: the second save must atomically replace the first.
		for i := 0; i < 2; i++ {
			if err := save(path); err != nil {
				t.Fatalf("%s save %d: %v", name, i, err)
			}
		}
		loaded, err := load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.Len() != seed.Len() {
			t.Fatalf("%s: %d references, want %d", name, loaded.Len(), seed.Len())
		}
		left, err := filepath.Glob(filepath.Join(dir, name+".tmp*"))
		if err != nil || len(left) != 0 {
			t.Fatalf("%s: temp files left behind: %v (%v)", name, left, err)
		}
		// The temp file's restrictive 0600 mode must not survive the
		// rename — checkpoints stay readable by other operator tooling.
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o644 {
			t.Fatalf("%s: checkpoint permissions %v, want 0644", name, perm)
		}
		// ...but permissions an operator tightened deliberately persist
		// across rewrites.
		if err := os.Chmod(path, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := save(path); err != nil {
			t.Fatal(err)
		}
		if info, err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o600 {
			t.Fatalf("%s: rewrite widened tightened permissions to %v", name, perm)
		}
	}
	head, err := os.ReadFile(filepath.Join(dir, "ref.json"))
	if err != nil || head[0] != '{' {
		t.Fatalf(".json checkpoint is not JSON (%v)", err)
	}
	if head, err = os.ReadFile(filepath.Join(dir, "ref.db")); err != nil || head[0] != 'D' {
		t.Fatalf(".db checkpoint is not binary (%v)", err)
	}
	// JSON with leading whitespace (a hand edit, a pretty-printer) must
	// still sniff as JSON, not fail as corrupt binary.
	raw, err := os.ReadFile(filepath.Join(dir, "ref.json"))
	if err != nil {
		t.Fatal(err)
	}
	padded := filepath.Join(dir, "padded.json")
	if err := os.WriteFile(padded, append([]byte("\n  \t"), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err := load(padded); err != nil || loaded.Len() != seed.Len() {
		t.Fatalf("whitespace-padded JSON rejected: %v", err)
	}
	if _, err := load(filepath.Join(dir, "missing.db")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.db")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(empty); err == nil {
		t.Fatal("empty file accepted")
	}
}

// TestResolveReferences covers fingerprintd's reference resolution: saved database, stream training, cold start,
// and the rejected -ref 0 without -enroll or -db.
func TestResolveReferences(t *testing.T) {
	t.Parallel()
	seedRefs, _, err := TrainFromStream(&sliceSource{recs: trainRecords(t, 120)}, time.Minute, singleParam, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	seed := seedRefs.DB
	path := filepath.Join(t.TempDir(), "ref.db")
	if err := SaveReferencesCheckpoint(path, seedRefs, checkpoint.Options{}); err != nil {
		t.Fatal(err)
	}

	// -db: the file decides param and measure; bogus flag values are
	// documented as ignored and must not fail.
	cfgs, measure, refs, pending, err := ResolveReferences(path, 0, "bogus", "nope", EnrollFlags{}, nil, 1)
	if err != nil {
		t.Fatalf("-db with ignored bogus param/measure: %v", err)
	}
	if refs.Empty() || refs.Len() != seed.Len() || pending != nil {
		t.Fatalf("-db resolution: refs=%+v pending=%v", refs, pending)
	}
	if len(cfgs) != 1 || cfgs[0].Param != dot11fp.ParamSize || measure != dot11fp.MeasureCosine {
		t.Fatalf("-db resolution took shape %v/%v from the flags, not the file", cfgs, measure)
	}
	// ...but without -db the same bogus values are fatal.
	if _, _, _, _, err := ResolveReferences("", time.Minute, "bogus", "cosine", EnrollFlags{}, &sliceSource{}, 1); err == nil {
		t.Fatal("bogus -param accepted on the training path")
	}

	// Stream training returns the boundary record; a comma list trains
	// a fused ensemble.
	_, _, refs, pending, err = ResolveReferences("", time.Minute, "size", "cosine",
		EnrollFlags{}, &sliceSource{recs: trainRecords(t, 120)}, 1)
	if err != nil || refs.Empty() || pending == nil {
		t.Fatalf("training resolution: refs=%+v pending=%v err=%v", refs, pending, err)
	}
	cfgs, _, refs, _, err = ResolveReferences("", time.Minute, "size,rate", "cosine",
		EnrollFlags{}, &sliceSource{recs: trainRecords(t, 120)}, 1)
	if err != nil || !refs.Multi() || len(cfgs) != 2 {
		t.Fatalf("fused training resolution: refs=%+v cfgs=%v err=%v", refs, cfgs, err)
	}

	// Cold start: no database, no error; rejected without -enroll.
	if _, _, refs, _, err = ResolveReferences("", 0, "size", "cosine", EnrollFlags{Enroll: true, Windows: 1}, nil, 1); err != nil || !refs.Empty() {
		t.Fatalf("cold start: refs=%+v err=%v", refs, err)
	}
	if _, _, _, _, err = ResolveReferences("", 0, "size", "cosine", EnrollFlags{}, nil, 1); err == nil {
		t.Fatal("-ref 0 without -enroll or -db accepted")
	}

	// The trainer-vs-compiled split the commands feed engines with.
	singleCfgs := []dot11fp.Config{seed.Config()}
	if tr, cdb, cedb, err := (EnrollFlags{Enroll: true, Windows: 1}).EnrollOrCompile(singleCfgs, seed.Measure(), seedRefs); err != nil || tr == nil || cdb != nil || cedb != nil {
		t.Fatal("enrolling resolution did not yield a trainer")
	}
	if tr, cdb, cedb, err := (EnrollFlags{}).EnrollOrCompile(singleCfgs, seed.Measure(), seedRefs); err != nil || tr != nil || cdb == nil || cedb != nil {
		t.Fatal("static resolution did not yield a compiled database")
	}
	if tr, cdb, cedb, err := (EnrollFlags{}).EnrollOrCompile(singleCfgs, seed.Measure(), References{}); err != nil || tr != nil || cdb != nil || cedb != nil {
		t.Fatal("empty resolution yielded references from nothing")
	}
	fused, _, err := TrainFromStream(&sliceSource{recs: trainRecords(t, 120)}, time.Minute,
		[]dot11fp.Param{dot11fp.ParamSize, dot11fp.ParamRate}, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	if tr, cdb, cedb, err := (EnrollFlags{}).EnrollOrCompile(fused.Configs(), fused.Measure(), fused); err != nil || tr != nil || cdb != nil || cedb == nil {
		t.Fatal("fused static resolution did not yield a compiled ensemble")
	}
	if tr, _, _, err := (EnrollFlags{Enroll: true, Windows: 1}).EnrollOrCompile(fused.Configs(), fused.Measure(), fused); err != nil || tr == nil || tr.Ensemble() == nil {
		t.Fatal("fused enrolling resolution did not yield an ensemble trainer")
	}
}

// TestEnsembleReferencesFileRoundTrip covers the fused checkpoint path
// end to end: SaveReferencesCheckpoint writes the binary container, codec
// sniffing restores it, and the .json extension is rejected up front.
func TestEnsembleReferencesFileRoundTrip(t *testing.T) {
	t.Parallel()
	fused, _, err := TrainFromStream(&sliceSource{recs: trainRecords(t, 120)}, time.Minute,
		[]dot11fp.Param{dot11fp.ParamSize, dot11fp.ParamRate}, dot11fp.MeasureCosine)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fused.fpdb")
	if err := SaveReferencesCheckpoint(path, fused, checkpoint.Options{}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadReferencesChain(path, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Multi() || loaded.Len() != fused.Len() {
		t.Fatalf("loaded refs: multi=%v len=%d, want multi len=%d", loaded.Multi(), loaded.Len(), fused.Len())
	}
	if got := loaded.Configs(); got[0].Param != dot11fp.ParamSize || got[1].Param != dot11fp.ParamRate {
		t.Fatalf("loaded configs = %v", got)
	}
	// No JSON interop form for ensembles: fail fast, write nothing.
	jsonPath := filepath.Join(dir, "fused.json")
	if err := SaveReferencesCheckpoint(jsonPath, fused, checkpoint.Options{}); err == nil {
		t.Fatal(".json ensemble checkpoint accepted")
	}
	if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
		t.Fatalf("rejected checkpoint left a file behind (%v)", err)
	}
}

// TestPrinterShape pins the one-line-per-event output contract the
// operators' tooling greps.
func TestPrinterShape(t *testing.T) {
	t.Parallel()
	addr, _ := dot11fp.ParseAddr("02:00:00:00:00:01")
	best, _ := dot11fp.ParseAddr("02:00:00:00:00:02")
	sig := dot11fp.ExtractOne(&dot11fp.Trace{Records: []dot11fp.Record{
		{T: 1, Sender: addr, Size: 200, RateMbps: 24, FCSOK: true},
	}}, addr, dot11fp.DefaultConfig(dot11fp.ParamSize))
	stamp := func(us int64) string { return time.Duration(us * 1000).String() }

	events := []struct {
		ev      dot11fp.Event
		want    []string
		verbose bool // emitted only under -v
	}{
		{dot11fp.CandidateMatched{Window: 1, Addr: addr, Sig: sig, Best: dot11fp.Score{Addr: best, Sim: 0.5}},
			[]string{"w001", "matched", "02:00:00:00:00:02", "sim=0.5000"}, false},
		{dot11fp.UnknownDevice{Window: 2, Addr: addr, Sig: sig},
			[]string{"w002", "UNKNOWN", "no references"}, false},
		{dot11fp.UnknownDevice{Window: 2, Addr: addr, Sig: sig, Best: dot11fp.Score{Addr: best, Sim: 0.25}, HasBest: true},
			[]string{"UNKNOWN", "best 02:00:00:00:00:02", "sim=0.2500"}, false},
		{dot11fp.CandidateDropped{Window: 3, Addr: addr, Observations: 7, Minimum: 50},
			[]string{"dropped", "7/50"}, true},
		{dot11fp.CandidateDropped{Window: 3, Addr: addr, Observations: 7, Evicted: true},
			[]string{"evicted"}, true},
		{dot11fp.EnrollmentProgress{Window: 4, Addr: addr, Windows: 1, Horizon: 3, Observations: 80},
			[]string{"enrolling", "1/3"}, true},
		{dot11fp.DeviceEnrolled{Window: 5, Addr: addr, Windows: 3, Observations: 240, Refs: 9},
			[]string{"ENROLLED", "3 windows", "9 references"}, false},
		{dot11fp.DBSwapped{Window: 5, Version: 2, Refs: 9, Enrolled: 1},
			[]string{"references v2", "9 devices", "1 enrolled"}, false},
		{dot11fp.WindowClosed{Window: 5, Start: 0, End: 1000, Frames: 10, Senders: 2, Candidates: 1, Matched: 1},
			[]string{"window 5", "10 frames", "2 senders"}, false},
	}
	for _, tc := range events {
		for _, verbose := range []bool{false, true} {
			var buf bytes.Buffer
			Printer(&buf, stamp, verbose)(tc.ev)
			out := buf.String()
			if tc.verbose && !verbose {
				if out != "" {
					t.Errorf("%T printed %q without -v", tc.ev, out)
				}
				continue
			}
			if n := strings.Count(out, "\n"); n != 1 {
				t.Errorf("%T printed %d lines: %q", tc.ev, n, out)
				continue
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("%T line %q is missing %q", tc.ev, out, want)
				}
			}
		}
	}
}

// TestStatsLines pins the operator stats formats.
func TestStatsLines(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	StatsLine(&buf, "fingerprintd", dot11fp.EngineStats{
		Frames: 1000, Elapsed: time.Second, FramesPerSec: 1000,
		WindowsClosed: 2, Matched: 3, Unknown: 1, Candidates: 4,
	})
	for _, want := range []string{"fingerprintd:", "1000 frames", "2 windows", "4 candidates", "3 matched"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("stats line %q is missing %q", buf.String(), want)
		}
	}
	buf.Reset()
	TrainerLine(&buf, "fingerprintd", dot11fp.TrainerStats{
		Refs: 12, Enrolled: 12, Swaps: 4, Pending: 3, Rejected: 2, Denied: 40,
	})
	// Rejected (senders) and Denied (per-window observations) are
	// different units and must not be summed into one figure.
	for _, want := range []string{"fingerprintd:", "12 references", "4 swaps", "3 pending", "2 rejected", "40 denied observations"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trainer line %q is missing %q", buf.String(), want)
		}
	}
}

func TestClusterSource(t *testing.T) {
	t.Parallel()
	// Two rotated MACs carrying the same probe content, plus the data
	// frames they send afterwards: the wrapped stream must hand every
	// one of them to training under the single canonical identity.
	body := dot11.BuildProbeBody(nil, nil, []byte{0xdd, 0x05, 0x00, 0x50, 0xf2, 0x04, 0x99})
	mac1 := dot11.Addr{0x06, 1, 2, 3, 4, 5}
	mac2 := dot11.Addr{0x06, 9, 8, 7, 6, 5}
	probe := func(t0 int64, sa dot11.Addr) dot11fp.Record {
		return dot11fp.Record{
			T: t0, Sender: sa, Receiver: dot11.Broadcast,
			Class: dot11.ClassProbeReq, ProbeIEs: body, Size: 60, FCSOK: true,
		}
	}
	data := func(t0 int64, sa dot11.Addr) dot11fp.Record {
		return dot11fp.Record{
			T: t0, Sender: sa, Receiver: dot11.LocalAddr(99),
			Class: dot11.ClassData, Size: 200, FCSOK: true,
		}
	}
	recs := []dot11fp.Record{
		probe(0, mac1), data(1_000, mac1),
		probe(2_000_000, mac2), data(2_001_000, mac2),
	}

	cl := dot11fp.NewClusterer(0)
	src := NewClusterSource(&sliceSource{recs: recs}, cl)
	var senders []dot11.Addr
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, rec.Sender)
	}
	if len(senders) != len(recs) {
		t.Fatalf("got %d records, want %d", len(senders), len(recs))
	}
	for i, sa := range senders {
		if sa != senders[0] {
			t.Fatalf("record %d sender %v, want canonical %v for all records", i, sa, senders[0])
		}
	}
	if senders[0] == mac1 || senders[0] == mac2 {
		t.Fatalf("canonical sender %v should differ from the rotated MACs", senders[0])
	}

	// A nil Clusterer is a passthrough: the source comes back unwrapped.
	plain := &sliceSource{recs: recs}
	if got := NewClusterSource(plain, nil); got != dot11fp.RecordSource(plain) {
		t.Fatal("nil Clusterer should return the source unchanged")
	}
}
