package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/dot11"
	"dot11fp/internal/scenario"
)

// BenchmarkMatchAllScale is the curve behind the indexed-matching
// claims, on two kinds of reference set:
//
//   - synth: synthDB's distinctive histograms at 1k/10k/100k devices
//     with 16 candidates per window, the batch a detection window hands
//     the matcher.
//   - fleet: simulated 802.11 offices (scenarioDB), ~1.5k and ~10k
//     inter-arrival references, with one site's next window as the
//     candidates. Devices here share most of their bins, which is what
//     the perfbench fleet-match workload matches against.
//
// Per size it times three paths:
//
//   - indexed-topk: TopKAllScratch with k=4, the per-window match cost
//     of the engines' default bounded verdicts — the postings scatter
//     plus a bounded selection.
//   - indexed-full: the full similarity vector through the postings
//     scatter. Ω(N) by its output size, but the kernel work follows the
//     candidate's shared support rather than N rows, and there are no
//     N×bins dense matrices.
//   - exhaustive: the dense rows the scatter replaced (dense_test.go),
//     scanned in full per candidate. Capped at N=10k, where
//     synth's row matrices already occupy ~1.3 GB; at 100k they would
//     need ~13 GB, which is the memory half of why the index exists.
//
// The committed BENCH_*.json records this sweep; CI re-runs the synth
// and fleet N=10k rows and fails if indexed top-k stops beating the
// exhaustive scan on either.
func BenchmarkMatchAllScale(b *testing.B) {
	type fixture struct {
		c     *CompiledDB
		dense *denseDB // built on first use by the exhaustive row
		db    *Database
		cands []Candidate
	}
	cache := map[string]*fixture{}
	get := func(kind string, n int) *fixture {
		key := fmt.Sprintf("%s/%d", kind, n)
		fx := cache[key]
		if fx != nil {
			return fx
		}
		fx = &fixture{}
		if kind == "fleet" {
			fx.db, fx.cands = scenarioDB(n / fleetStations)
		} else {
			// The raw signatures of a 100k-reference fixture are ~13 GB of
			// dense histograms; build without GC churn, keep only the
			// compiled snapshot, and release the rest before timing.
			prev := debug.SetGCPercent(-1)
			fx.db, fx.cands = synthDB(n, 16, MeasureCosine)
			debug.SetGCPercent(prev)
		}
		fx.c = fx.db.Compile()
		if n > 10000 {
			fx.db = nil // no exhaustive row: release the signatures
		}
		cache[key] = fx
		runtime.GC()
		return fx
	}
	for _, sz := range []struct {
		kind, label string
		n           int
	}{
		{"synth", "1000", 1000}, {"synth", "10000", 10000}, {"synth", "100000", 100000},
		{"fleet", "1.5k", 48 * fleetStations}, {"fleet", "10k", 312 * fleetStations},
	} {
		name, n := sz.kind+"/N="+sz.label, sz.n
		b.Run(name+"/indexed-topk", func(b *testing.B) {
			fx := get(sz.kind, n)
			var scratch MatchScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.c.TopKAllScratch(fx.cands, 4, &scratch)
			}
		})
		b.Run(name+"/indexed-full", func(b *testing.B) {
			fx := get(sz.kind, n)
			var scratch MatchScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.c.MatchAllScratch(fx.cands, &scratch)
			}
		})
		if n > 10000 {
			continue // dense matrices at 100k would need ~13 GB
		}
		b.Run(name+"/exhaustive", func(b *testing.B) {
			fx := get(sz.kind, n)
			if fx.dense == nil {
				fx.dense, fx.db = compileDense(fx.db), nil
				runtime.GC()
			}
			var scratch MatchScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.dense.matchAll(fx.cands, &scratch)
			}
		})
	}
}

const (
	// fleetStations is the resident population of one scenarioDB site.
	fleetStations = 32
	// fleetRef and fleetWindow are scenarioDB's training prefix and
	// candidate window.
	fleetRef    = 2 * time.Minute
	fleetWindow = time.Minute
)

// scenarioDB builds a realistic reference set: sites simulated offices
// of fleetStations stations each, their addresses remapped into a range
// per site, trained on every site's first fleetRef into one
// inter-arrival cosine database (~fleetStations references per site,
// access point included). The candidates are site 0's first fleetWindow
// after the training prefix.
func scenarioDB(sites int) (*Database, []Candidate) {
	db := NewDatabase(DefaultConfig(ParamInterArrival), MeasureCosine)
	var cands []Candidate
	for s := 0; s < sites; s++ {
		dur := fleetRef
		if s == 0 {
			dur += fleetWindow
		}
		tr, _, err := scenario.Build(scenario.Office(fmt.Sprintf("site-%d", s), uint64(sites+s), dur, fleetStations))
		if err != nil {
			panic(err)
		}
		remapSite(tr, s)
		train, live := Split(tr, fleetRef)
		if err := db.Train(train); err != nil {
			panic(err)
		}
		if s == 0 {
			cands = CandidatesIn(live, fleetWindow, db.Config())
		}
	}
	return db, cands
}

// remapSite gives a site's simulated addresses a range of their own:
// every site's simulator mints the same 02:00:00:00:00:NN station
// addresses, so octets 1–2 carry the site number plus one.
func remapSite(tr *capture.Trace, site int) {
	remap := func(a dot11.Addr) dot11.Addr {
		if a[0] == 0x02 {
			a[1], a[2] = byte(site+1), byte((site+1)>>8)
		}
		return a
	}
	for i := range tr.Records {
		rec := &tr.Records[i]
		rec.Sender = remap(rec.Sender)
		rec.Receiver = remap(rec.Receiver)
	}
}

// TestScenarioDBShape pins the realistic fixture's size: about
// fleetStations references per site and a window of candidates.
func TestScenarioDBShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 4 office sites")
	}
	db, cands := scenarioDB(4)
	if db.Len() < 4*fleetStations*9/10 || db.Len() > 4*(fleetStations+2) {
		t.Fatalf("%d references from 4 sites of %d stations", db.Len(), fleetStations)
	}
	if len(cands) < fleetStations/2 {
		t.Fatalf("%d candidates in site 0's window", len(cands))
	}
}
