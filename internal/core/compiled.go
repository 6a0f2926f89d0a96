package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dot11fp/internal/dot11"
	"dot11fp/internal/histogram"
)

// CompiledDB is an immutable, matching-optimised snapshot of a
// Database. Compilation freezes every reference signature into
// contiguous per-class [N×bins]float64 frequency matrices with the
// per-reference weights and Euclidean norms precomputed, so matching a
// candidate costs one frequency conversion per candidate class plus one
// dot product per (class, reference) pair — no allocation, no repeated
// normalisation of immutable reference data. Results are bit-identical
// to the naive per-pair Similarity path: the same values flow through
// the same floating-point operations in the same order.
//
// A CompiledDB is safe for concurrent use; each goroutine needs its own
// MatchScratch for the zero-allocation entry points.
type CompiledDB struct {
	cfg     Config
	measure Measure
	addrs   []dot11.Addr
	index   map[dot11.Addr]int // addr → position in addrs
	totals  []uint64           // per reference: observation total at compile time
	bins    int
	classes [dot11.NumClasses]compiledClass
	idx     *matchIndex // sparse match index (see index.go); nil on the dense path

	scratch sync.Pool // *MatchScratch, for the scratchless conveniences
}

// compiledClass is the frozen per-frame-class reference data. For
// cosine — scale-invariant, so it can skip the frequency conversion —
// rows hold the raw counts pre-converted to float64 (exact: counts are
// far below 2^53), keeping the inner loop a pure float dot product
// while staying bit-identical to the count-domain CosineCounts kernel.
// The other measures freeze frequency rows.
type compiledClass struct {
	present bool      // at least one reference carries this class
	has     []bool    // per reference: class present in its signature
	rows    []float64 // N×bins row-major matrix: float64 counts (cosine) or frequencies; nil when indexed
	norms   []float64 // per reference: Euclidean norm of its count row (cosine only)
	weights []float64 // per reference: weight^ftype (Definition 1)
}

// MatchScratch holds the reusable buffers of the zero-allocation match
// path. The zero value is ready to use; buffers grow on first use and
// are retained across calls. A scratch must not be shared between
// concurrent MatchInto calls.
type MatchScratch struct {
	freqs  []float64
	scores []Score
	sims   []float64 // per-reference similarities, written by simsInto
	l1nz   []int32   // candidate support scratch for the indexed L1 kernel
	acc    []float64 // per-class partial sums of the indexed scatter
}

// Compile freezes the database's current references into a CompiledDB.
// The snapshot is cached: repeated calls return the same CompiledDB
// until the reference set changes. Staleness is detected by comparing
// per-reference observation totals (every matching-relevant signature
// mutation — Add, Train, or mutating a signature obtained from
// Signature — grows some histogram count and with it the total), so
// the check costs O(N) instead of a recompile.
func (db *Database) Compile() *CompiledDB {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.compiled == nil || !db.compiled.fresh(db) {
		db.compiled = compile(db)
	}
	return db.compiled
}

// fresh reports whether the snapshot still reflects the live references.
func (c *CompiledDB) fresh(db *Database) bool {
	if len(c.addrs) != len(db.order) {
		return false
	}
	for r, addr := range c.addrs {
		if db.refs[addr].total != c.totals[r] {
			return false
		}
	}
	return true
}

// compile builds the frozen matrices from the live reference map. When
// the database's IndexMode selects indexing (explicitly, or automatically
// at indexAutoMin references), the dense row matrices are not built at
// all: the sparse index carries the same values and the indexed kernels
// reproduce the dense results bit for bit at a fraction of the memory.
func compile(db *Database) *CompiledDB {
	n := len(db.order)
	cosine := db.measure.isCosine()
	indexed := db.indexing == IndexOn || (db.indexing == IndexAuto && n >= indexAutoMin)
	c := &CompiledDB{
		cfg:     db.cfg,
		measure: db.measure,
		addrs:   make([]dot11.Addr, n),
		index:   make(map[dot11.Addr]int, n),
		totals:  make([]uint64, n),
		bins:    db.cfg.Bins.Bins,
	}
	copy(c.addrs, db.order)
	for r, addr := range c.addrs {
		c.index[addr] = r
		c.totals[r] = db.refs[addr].total
	}
	for ci := range c.classes {
		class := dot11.Class(ci)
		cc := &c.classes[ci]
		for r, addr := range db.order {
			sig := db.refs[addr]
			h := sig.Hist(class)
			if h == nil {
				continue
			}
			if !cc.present {
				cc.present = true
				cc.has = make([]bool, n)
				cc.weights = make([]float64, n)
				if !indexed {
					cc.rows = make([]float64, n*c.bins)
				}
				if cosine {
					cc.norms = make([]float64, n)
				}
			}
			cc.has[r] = true
			cc.weights[r] = sig.Weight(class)
			if cosine {
				cc.norms[r] = histogram.CountNorm(h.CountsView())
			}
			if indexed {
				continue
			}
			row := cc.rows[r*c.bins : (r+1)*c.bins]
			if cosine {
				for i, v := range h.CountsView() {
					row[i] = float64(v)
				}
			} else {
				h.AppendFreqs(row[:0:c.bins])
			}
		}
	}
	if indexed {
		c.idx = buildIndex(db, c)
	}
	return c
}

// Config returns the extraction configuration the database was built with.
func (c *CompiledDB) Config() Config { return c.cfg }

// Measure returns the similarity measure in use.
func (c *CompiledDB) Measure() Measure { return c.measure }

// Len returns the number of reference devices.
func (c *CompiledDB) Len() int { return len(c.addrs) }

// Devices returns the reference addresses in insertion order.
func (c *CompiledDB) Devices() []dot11.Addr {
	out := make([]dot11.Addr, len(c.addrs))
	copy(out, c.addrs)
	return out
}

// MatchInto computes the similarity vector of a candidate against every
// reference (Algorithm 1, insertion order) into the scratch buffers and
// returns a slice aliasing scratch.scores. It performs no allocation
// once the scratch has warmed up; the result is only valid until the
// scratch's next use.
//
//fp:hotpath test=TestMatchIntoZeroAlloc
func (c *CompiledDB) MatchInto(candidate *Signature, scratch *MatchScratch) []Score {
	n := len(c.addrs)
	if cap(scratch.scores) < n {
		scratch.scores = make([]Score, n)
	}
	return c.matchRow(candidate, scratch, scratch.scores[:n])
}

// matchRow writes the similarity vector into scores (length Len()) and
// returns it, using scratch only for the kernels' working buffers — the
// batch entry points pass rows of the backing they hand off, so the
// vector is copied out of the scratch exactly once.
func (c *CompiledDB) matchRow(candidate *Signature, scratch *MatchScratch, scores []Score) []Score {
	sims := c.simsInto(candidate, scratch)
	for r, addr := range c.addrs {
		scores[r] = Score{Addr: addr, Sim: sims[r]}
	}
	return scores
}

// simsInto computes the candidate's similarity against every reference
// into scratch.sims and returns it (length Len(), valid until the
// scratch's next use). It is the one match kernel: the full vector, the
// top-k selections and the fused ensemble vector all read its output.
// Indexed snapshots take the postings scatter (index.go), dense ones
// the row matrices; both are bit-identical to the naive Similarity
// loop.
func (c *CompiledDB) simsInto(candidate *Signature, scratch *MatchScratch) []float64 {
	n := len(c.addrs)
	if cap(scratch.sims) < n {
		scratch.sims = make([]float64, n)
	}
	sims := scratch.sims[:n]
	clear(sims)
	if candidate == nil {
		return sims
	}
	if c.idx != nil {
		c.simsIndexed(candidate, scratch, sims)
		return sims
	}
	// Ascending class order mirrors Signature.Classes(), so every
	// reference accumulates its per-class contributions in the same
	// order as the naive Similarity loop.
	for ci := range c.classes {
		cc := &c.classes[ci]
		if !cc.present {
			continue
		}
		ch := candidate.Hist(dot11.Class(ci))
		if ch == nil || ch.Bins() != c.bins {
			// Absent from the candidate, or a shape mismatch on which
			// every similarity measure evaluates to zero.
			continue
		}
		switch c.measure {
		case MeasureIntersection, MeasureBhattacharyya, MeasureL1:
			cf := ch.AppendFreqs(scratch.freqs[:0])
			scratch.freqs = cf // keep the grown buffer for the next class
			c.accumulate(sims, cc, cf, c.measure.fn())
		default:
			// Count domain, like the naive cosine path. The candidate
			// counts are converted to float64 once (exact, so the bits
			// cannot differ from converting inside the dot product) and
			// the candidate norm is hoisted out of the reference loop.
			cf := scratch.freqs[:0]
			for _, v := range ch.CountsView() {
				cf = append(cf, float64(v))
			}
			scratch.freqs = cf
			cn := histogram.CountNorm(ch.CountsView())
			for r := range sims {
				if !cc.has[r] {
					continue
				}
				row := cc.rows[r*c.bins : (r+1)*c.bins]
				sims[r] += cc.weights[r] * histogram.CosineNormed(cf, row, cn, cc.norms[r])
			}
		}
	}
	return sims
}

// accumulate applies a generic frequency-domain measure across every
// reference row that carries the class.
func (c *CompiledDB) accumulate(sims []float64, cc *compiledClass, cf []float64, f func(a, b []float64) float64) {
	for r := range sims {
		if !cc.has[r] {
			continue
		}
		sims[r] += cc.weights[r] * f(cf, cc.rows[r*c.bins:(r+1)*c.bins])
	}
}

// getScratch pops a pooled scratch for the scratchless conveniences.
func (c *CompiledDB) getScratch() *MatchScratch {
	if s, ok := c.scratch.Get().(*MatchScratch); ok {
		return s
	}
	return &MatchScratch{}
}

// Match computes the similarity vector into a freshly allocated slice.
func (c *CompiledDB) Match(candidate *Signature) []Score {
	return c.MatchAppend(candidate, make([]Score, 0, len(c.addrs)))
}

// MatchAppend appends the similarity vector to dst and returns the
// extended slice — the allocation-free form of Match for callers that
// reuse a result buffer across windows (append-style, like
// histogram.AppendFreqs). It routes through the pooled scratch, so a
// warmed dst[:0] with capacity ≥ Len() makes the call allocation-free.
func (c *CompiledDB) MatchAppend(candidate *Signature, dst []Score) []Score {
	s := c.getScratch()
	dst = append(dst, c.MatchInto(candidate, s)...)
	c.scratch.Put(s)
	return dst
}

// Best returns the arg-max reference for the identification test, with
// ok=false for an empty database: the top-1 selection, so ties go to the
// earlier insertion index, as the first strict maximum of the full
// vector does.
func (c *CompiledDB) Best(candidate *Signature) (Score, bool) {
	s := c.getScratch()
	defer c.scratch.Put(s)
	top := c.TopKInto(candidate, 1, s)
	if len(top) == 0 {
		return Score{Sim: -1}, false
	}
	return top[0], top[0].Sim >= 0
}

// Above returns the references whose similarity is at least the
// threshold — the similarity test's returned set, in insertion order: a
// filter over the similarity vector.
func (c *CompiledDB) Above(candidate *Signature, threshold float64) []Score {
	s := c.getScratch()
	defer c.scratch.Put(s)
	var out []Score
	for r, sim := range c.simsInto(candidate, s) {
		if sim >= threshold {
			out = append(out, Score{Addr: c.addrs[r], Sim: sim})
		}
	}
	return out
}

// TopKInto returns the k best-matching references ranked by similarity
// (ties broken toward the earlier insertion index — the same reference
// Best would pick), writing into the scratch's buffers; the result is
// only valid until the scratch's next use. It selects from the
// similarity vector, so scores, order and ties are bit-identical to
// ranking the full vector. k is clamped to Len(); k <= 0 returns nil. It
// performs no allocation once the scratch has warmed up.
//
//fp:hotpath test=TestTopKIntoZeroAlloc
func (c *CompiledDB) TopKInto(candidate *Signature, k int, scratch *MatchScratch) []Score {
	k = min(k, len(c.addrs))
	if k <= 0 {
		return nil
	}
	if cap(scratch.scores) < k {
		scratch.scores = make([]Score, k)
	}
	return selectTop(scratch.scores[:k], c.simsInto(candidate, scratch), c.addrs)
}

// selectTop writes the len(dst) best entries of sims into dst, ranked
// by score descending with ties toward the earlier index, and returns
// dst (len(dst) <= len(sims)). sims is scanned in ascending index order,
// so an entry only displaces or passes entries of strictly lower score:
// an equal score from a later index always ranks behind.
func selectTop(dst []Score, sims []float64, addrs []dot11.Addr) []Score {
	k := len(dst)
	top := dst[:0]
	for r, sim := range sims {
		if len(top) == k {
			if !(sim > top[k-1].Sim) {
				continue
			}
		} else {
			top = top[:len(top)+1]
		}
		pos := len(top) - 1
		for pos > 0 && sim > top[pos-1].Sim {
			top[pos] = top[pos-1]
			pos--
		}
		top[pos] = Score{Addr: addrs[r], Sim: sim}
	}
	return top
}

// TopK is the allocating convenience form of TopKInto.
func (c *CompiledDB) TopK(candidate *Signature, k int) []Score {
	s := c.getScratch()
	defer c.scratch.Put(s)
	return slices.Clone(c.TopKInto(candidate, k, s))
}

// TopKAllScratch ranks a batch of candidates through one long-lived
// scratch, returning min(k, Len()) scores per candidate in one backing
// allocation. Row i is exactly TopK(cands[i].Sig, k).
func (c *CompiledDB) TopKAllScratch(cands []Candidate, k int, scratch *MatchScratch) [][]Score {
	return c.topKAll(cands, k, func(row func(*MatchScratch, int)) {
		for i := range cands {
			row(scratch, i)
		}
	})
}

// TopKAllWorkers is TopKAllScratch fanned out across workers (0 selects
// GOMAXPROCS, 1 forces the serial path); results are identical for
// every worker count.
func (c *CompiledDB) TopKAllWorkers(cands []Candidate, k, workers int) [][]Score {
	return c.topKAll(cands, k, func(row func(*MatchScratch, int)) {
		ForEachIndex(len(cands), workers, row)
	})
}

// topKAll is matchAll for ranked rows: one backing of min(k, Len())
// scores per candidate, each row selected straight into it.
func (c *CompiledDB) topKAll(cands []Candidate, k int, each func(row func(*MatchScratch, int))) [][]Score {
	out := make([][]Score, len(cands))
	k = min(k, len(c.addrs))
	if len(cands) == 0 || k <= 0 {
		return out
	}
	backing := make([]Score, len(cands)*k)
	each(func(scratch *MatchScratch, i int) {
		out[i] = selectTop(backing[i*k:(i+1)*k:(i+1)*k], c.simsInto(cands[i].Sig, scratch), c.addrs)
	})
	return out
}

// IndexStats describes the snapshot's match index; Enabled is false on
// the dense path, where DenseBytes reports the matrices actually held.
func (c *CompiledDB) IndexStats() IndexStats {
	if c.idx != nil {
		return c.idx.stats
	}
	st := IndexStats{References: len(c.addrs)}
	for ci := range c.classes {
		if c.classes[ci].present {
			st.DenseBytes += int64(len(c.addrs)) * int64(c.bins) * 8
		}
	}
	return st
}

// MatchAll matches a batch of candidates, fanning the work out across
// GOMAXPROCS workers. Row i of the result is exactly Match(cands[i].Sig)
// — worker scheduling cannot affect the output, because every row is
// computed independently and written at its own index. All rows share
// one backing allocation.
func (c *CompiledDB) MatchAll(cands []Candidate) [][]Score {
	return c.MatchAllWorkers(cands, 0)
}

// MatchAllWorkers is MatchAll with an explicit worker cap (0 selects
// GOMAXPROCS, 1 forces the serial path). Results are identical for
// every worker count.
func (c *CompiledDB) MatchAllWorkers(cands []Candidate, workers int) [][]Score {
	return c.matchAll(cands, func(row func(*MatchScratch, int)) {
		ForEachIndex(len(cands), workers, row)
	})
}

// MatchAllScratch is the serial, caller-scratch form of MatchAll, built
// for per-shard reuse: one long-lived scratch per shard amortises the
// internal buffers across every window, while the returned rows (one
// backing allocation per call) are handed off to the caller and never
// aliased again. Row i is exactly Match(cands[i].Sig).
func (c *CompiledDB) MatchAllScratch(cands []Candidate, scratch *MatchScratch) [][]Score {
	return c.matchAll(cands, func(row func(*MatchScratch, int)) {
		for i := range cands {
			row(scratch, i)
		}
	})
}

// matchAll allocates the batch's rows in one backing; each must call
// row(scratch, i) exactly once per candidate index, and row writes its
// similarity vector straight into that backing.
func (c *CompiledDB) matchAll(cands []Candidate, each func(row func(*MatchScratch, int))) [][]Score {
	out := make([][]Score, len(cands))
	if len(cands) == 0 {
		return out
	}
	n := len(c.addrs)
	backing := make([]Score, len(cands)*n)
	each(func(scratch *MatchScratch, i int) {
		out[i] = c.matchRow(cands[i].Sig, scratch, backing[i*n:(i+1)*n:(i+1)*n])
	})
	return out
}

// ForEachIndex runs fn(scratch, i) for every i in [0, n) across the
// given number of workers (0 ⇒ GOMAXPROCS, 1 ⇒ inline serial). Each
// worker owns one MatchScratch, so fn can use the zero-allocation
// matching entry points directly. Every index is processed exactly once
// and independently; as long as fn's writes are index-disjoint, the
// aggregate effect is identical for any worker count — the fan-out
// changes wall-clock time, never results.
func ForEachIndex(n, workers int, fn func(scratch *MatchScratch, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		scratch := getWorkerScratch()
		for i := 0; i < n; i++ {
			fn(scratch, i)
		}
		workerScratch.Put(scratch)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := getWorkerScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					workerScratch.Put(scratch)
					return
				}
				fn(scratch, i)
			}
		}()
	}
	wg.Wait()
}

// workerScratch pools ForEachIndex's per-worker scratches, so a window's
// fan-out reuses the previous window's buffers instead of regrowing
// them. A worker that panics out of fn drops its scratch rather than
// returning it.
var workerScratch sync.Pool // *MatchScratch

func getWorkerScratch() *MatchScratch {
	if s, ok := workerScratch.Get().(*MatchScratch); ok {
		return s
	}
	return &MatchScratch{}
}
