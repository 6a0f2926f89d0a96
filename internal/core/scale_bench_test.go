package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// BenchmarkMatchAllScale sweeps synthetic reference databases of
// 1k/10k/100k devices (16 candidates per window, the batch a detection
// window hands the matcher) and is the curve behind the indexed-matching
// claims:
//
//   - indexed-topk: the pruned top-4 search — the per-window match cost
//     when the engines run with Options.TopK. Sublinear in N: the term
//     walk touches the candidate's rare postings and stops before the
//     universal bins.
//   - indexed-full: the full similarity vector through the postings
//     scatter. Ω(N) by its output size, but the kernel work follows the
//     candidate's shared support rather than N rows — and there are no
//     N×bins dense matrices.
//   - exhaustive: the dense IndexOff baseline. Capped at N=10k, where
//     its row matrices already occupy ~1.3 GB; at 100k they would need
//     ~13 GB, which is the memory half of why the index exists.
//
// The committed BENCH_*.json records this sweep; CI re-runs the N=10k
// pair and fails if the indexed search stops beating the exhaustive scan.
func BenchmarkMatchAllScale(b *testing.B) {
	type fixture struct {
		c     *CompiledDB
		cands []Candidate
	}
	cache := map[string]*fixture{}
	get := func(n int, mode IndexMode) *fixture {
		key := fmt.Sprintf("%d/%v", n, mode)
		fx := cache[key]
		if fx == nil {
			// The raw signatures of a 100k-reference fixture are ~13 GB of
			// dense histograms; build without GC churn, keep only the
			// compiled snapshot, and release the rest before timing.
			prev := debug.SetGCPercent(-1)
			db, cands := synthDB(n, 16, MeasureCosine, mode)
			fx = &fixture{c: db.Compile(), cands: cands}
			cache[key] = fx
			debug.SetGCPercent(prev)
			runtime.GC()
		}
		return fx
	}
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d/indexed-topk", n), func(b *testing.B) {
			fx := get(n, IndexOn)
			var scratch MatchScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.c.TopKAllScratch(fx.cands, 4, &scratch)
			}
		})
		b.Run(fmt.Sprintf("N=%d/indexed-full", n), func(b *testing.B) {
			fx := get(n, IndexOn)
			var scratch MatchScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.c.MatchAllScratch(fx.cands, &scratch)
			}
		})
		if n > 10000 {
			continue // dense matrices at 100k would need ~13 GB
		}
		b.Run(fmt.Sprintf("N=%d/exhaustive", n), func(b *testing.B) {
			fx := get(n, IndexOff)
			var scratch MatchScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.c.MatchAllScratch(fx.cands, &scratch)
			}
		})
	}
}
