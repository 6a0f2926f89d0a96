package dot11fp_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"dot11fp"
)

// The values a caller passes in or compares against, each exercised the
// way a caller writes it.

// TestContentParams pins the probe-content parameter list: the three
// constants in order, each resolvable by its short name, none of them
// among the paper's five network parameters.
func TestContentParams(t *testing.T) {
	want := []dot11fp.Param{dot11fp.ParamProbeIE, dot11fp.ParamProbeCap, dot11fp.ParamProbeSSID}
	if len(dot11fp.ContentParams) != len(want) {
		t.Fatalf("ContentParams = %v, want %v", dot11fp.ContentParams, want)
	}
	for i, p := range dot11fp.ContentParams {
		if p != want[i] {
			t.Errorf("ContentParams[%d] = %v, want %v", i, p, want[i])
		}
		if got, err := dot11fp.ParamByShortName(p.ShortName()); err != nil || got != p {
			t.Errorf("ParamByShortName(%q) = %v, %v", p.ShortName(), got, err)
		}
		for _, np := range dot11fp.Params {
			if np == p {
				t.Errorf("content parameter %v is also a network parameter", p)
			}
		}
	}
}

// TestMeasuresSelfSimilarity resolves every similarity measure by name
// and checks that a signature is fully similar to itself under each.
func TestMeasuresSelfSimilarity(t *testing.T) {
	office, _ := fixtures(t)
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	sig := dot11fp.ExtractOne(office, office.Records[0].Sender, cfg)
	if len(dot11fp.Measures) != 4 {
		t.Fatalf("Measures = %v, want the four measures", dot11fp.Measures)
	}
	for _, m := range dot11fp.Measures {
		if got, err := dot11fp.MeasureByName(m.String()); err != nil || got != m {
			t.Errorf("MeasureByName(%q) = %v, %v", m.String(), got, err)
		}
		if sim := dot11fp.SimilarityOf(sig, sig, m); math.Abs(sim-1) > 1e-9 {
			t.Errorf("%v self-similarity = %v, want 1", m, sim)
		}
	}
}

// TestVerdictTopK checks the verdict-length bounds a caller sets in
// EngineOptions.TopK: the zero value carries DefaultTopK ranked scores,
// FullVector one score per reference.
func TestVerdictTopK(t *testing.T) {
	office, _ := fixtures(t)
	train, live := dot11fp.Split(office, 4*time.Minute)
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	if err := db.Train(train); err != nil {
		t.Fatal(err)
	}
	if db.Len() <= dot11fp.DefaultTopK {
		t.Fatalf("fixture has %d references, need more than DefaultTopK = %d", db.Len(), dot11fp.DefaultTopK)
	}
	for _, tc := range []struct {
		name string
		topK int
		want int
	}{
		{"default", 0, dot11fp.DefaultTopK},
		{"full vector", dot11fp.FullVector, db.Len()},
	} {
		verdicts := 0
		eng, err := dot11fp.NewEngine(cfg, db.Compile(), dot11fp.EngineOptions{
			Window: 3 * time.Minute,
			TopK:   tc.topK,
			Sink: dot11fp.SinkFunc(func(ev dot11fp.Event) {
				if ev, ok := ev.(dot11fp.CandidateMatched); ok {
					verdicts++
					if len(ev.Scores) != tc.want {
						t.Errorf("%s: %s carries %d scores, want %d", tc.name, ev.Addr, len(ev.Scores), tc.want)
					}
				}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range live.Records {
			eng.Push(&live.Records[i])
		}
		eng.Close()
		if verdicts == 0 {
			t.Fatalf("%s: no verdicts", tc.name)
		}
	}
}

// TestEnrollAutoIsDefault checks that a trainer's zero-value policy is
// EnrollAuto, and that an auto-enrolling cold start populates its
// references from the stream alone.
func TestEnrollAutoIsDefault(t *testing.T) {
	if (dot11fp.TrainerOptions{}).Policy != dot11fp.EnrollAuto {
		t.Fatal("the zero TrainerOptions.Policy is not EnrollAuto")
	}
	office, _ := fixtures(t)
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	trainer := dot11fp.NewTrainer(cfg, dot11fp.MeasureCosine,
		dot11fp.TrainerOptions{Policy: dot11fp.EnrollAuto, Horizon: 1})
	enrolled := 0
	eng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
		Window:  3 * time.Minute,
		Trainer: trainer,
		Sink: dot11fp.SinkFunc(func(ev dot11fp.Event) {
			if _, ok := ev.(dot11fp.DeviceEnrolled); ok {
				enrolled++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range office.Records {
		eng.Push(&office.Records[i])
	}
	eng.Close()
	if enrolled == 0 || trainer.Stats().Refs != enrolled {
		t.Fatalf("%d DeviceEnrolled events, %d trainer references", enrolled, trainer.Stats().Refs)
	}
}

// TestBinaryCheckpointErrors checks the typed errors a caller matches
// with errors.Is on a checkpoint load: ErrBinaryDatabase for a torn
// file, ErrBinaryVersion for one a newer build wrote — for the single
// database and the ensemble container alike.
func TestBinaryCheckpointErrors(t *testing.T) {
	office, _ := fixtures(t)
	train, _ := dot11fp.Split(office, 4*time.Minute)
	db := dot11fp.NewDatabase(dot11fp.DefaultConfig(dot11fp.ParamInterArrival), dot11fp.MeasureCosine)
	if err := db.Train(train); err != nil {
		t.Fatal(err)
	}
	var single bytes.Buffer
	if err := db.SaveBinary(&single); err != nil {
		t.Fatal(err)
	}
	ens, err := dot11fp.NewEnsemble(dot11fp.MeasureCosine,
		dot11fp.DefaultConfig(dot11fp.ParamInterArrival), dot11fp.DefaultConfig(dot11fp.ParamSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Train(train); err != nil {
		t.Fatal(err)
	}
	var fused bytes.Buffer
	if err := ens.SaveBinary(&fused); err != nil {
		t.Fatal(err)
	}

	loadDB := func(b []byte) error { _, err := dot11fp.LoadBinaryDatabase(bytes.NewReader(b)); return err }
	loadEns := func(b []byte) error { _, err := dot11fp.LoadBinaryEnsemble(bytes.NewReader(b)); return err }
	// The version byte follows each magic: "D11FPDB" + version,
	// "D11FPENS" + version.
	for _, tc := range []struct {
		name    string
		load    func([]byte) error
		raw     []byte
		version int
	}{
		{"database", loadDB, single.Bytes(), 7},
		{"ensemble", loadEns, fused.Bytes(), 8},
	} {
		if err := tc.load(tc.raw); err != nil {
			t.Fatalf("%s: intact checkpoint: %v", tc.name, err)
		}
		torn := tc.raw[:len(tc.raw)/2]
		if err := tc.load(torn); !errors.Is(err, dot11fp.ErrBinaryDatabase) {
			t.Errorf("%s: torn checkpoint: %v, want ErrBinaryDatabase", tc.name, err)
		}
		future := bytes.Clone(tc.raw)
		future[tc.version]++
		err := tc.load(future)
		if !errors.Is(err, dot11fp.ErrBinaryVersion) {
			t.Errorf("%s: future-version checkpoint: %v, want ErrBinaryVersion", tc.name, err)
		}
		if errors.Is(err, dot11fp.ErrBinaryDatabase) {
			t.Errorf("%s: a well-formed future checkpoint reported as corrupt: %v", tc.name, err)
		}
	}
}

// garbageFeed is a monitor whose every delivered record comes after an
// undecodable one: half its frames are garbage. Skipped is the decode
// counter a pcap stream reports to supervision.
type garbageFeed struct {
	t       int64
	skipped atomic.Uint64
}

func (g *garbageFeed) Next() (dot11fp.Record, error) {
	g.t += 1000
	g.skipped.Add(1)
	return dot11fp.Record{T: g.t, Size: 300, RateMbps: 24, FCSOK: true}, nil
}

func (g *garbageFeed) Skipped() uint64 { return g.skipped.Load() }

// TestBreakerTripped checks that a supervised source whose decode-error
// rate crosses the breaker threshold fails with an error matching
// ErrBreakerTripped, while a healthy pcap source beside it
// keeps flowing.
func TestBreakerTripped(t *testing.T) {
	office, _ := fixtures(t)
	var pcap bytes.Buffer
	t0 := office.Records[0].T
	if err := dot11fp.WritePcap(&pcap, office.Slice(t0, t0+time.Minute.Microseconds())); err != nil {
		t.Fatal(err)
	}
	healthy, err := dot11fp.ReadPcapStream(&pcap)
	if err != nil {
		t.Fatal(err)
	}
	stream := dot11fp.NewMultiStreamOpts(dot11fp.MultiOptions{
		Mode:       dot11fp.MergeArrival,
		Supervisor: dot11fp.Supervisor{BreakerWindow: 10},
	}, healthy, &garbageFeed{})
	defer stream.Close()
	records := 0
	for {
		_, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		records++
	}
	if err := stream.Err(); !errors.Is(err, dot11fp.ErrBreakerTripped) {
		t.Fatalf("stream error %v, want ErrBreakerTripped", err)
	}
	st := stream.SourceStats()
	if st[1].Failures != 1 || st[1].DecodeErrors == 0 {
		t.Errorf("garbage source stats %+v, want one failure and its decode errors counted", st[1])
	}
	if st[0].Down || st[0].Records == 0 || records < int(st[0].Records) {
		t.Errorf("healthy source stats %+v after %d merged records", st[0], records)
	}
}
