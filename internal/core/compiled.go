package core

import (
	"slices"
	"sync"

	"dot11fp/internal/dot11"
)

// CompiledDB is an immutable, matching-optimised snapshot of a
// Database. Compilation freezes every reference signature into
// per-class sparse rows and an inverted index over their non-zero bins
// (index.go), with the per-reference weights and Euclidean norms
// precomputed, so matching a candidate walks only the postings of the
// candidate's own non-zero bins — no allocation, no repeated
// normalisation of immutable reference data. Results are bit-identical
// to the naive per-pair Similarity path: the same non-zero terms flow
// through the same floating-point operations in the same order.
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
	stats   IndexStats

	scratch sync.Pool // *MatchScratch, for the scratchless conveniences
}

// compiledClass is one frame class's frozen reference data. A class no
// reference carries is the zero value (nil weights). Row values are
// float64 counts for cosine (exact: counts are far below 2^53) and
// frequencies for the other measures. Only the layout the measure reads
// is built: the L1 measure's union merge walks CSR rows, every other
// measure scatters through the postings.
type compiledClass struct {
	weights []float64 // per reference: weight^ftype (Definition 1)
	norms   []float64 // per reference: Euclidean norm of its count row (cosine only)
	// Inverted index (all but L1): references (ascending) per fine bin,
	// with each posting's row value alongside for the scatter.
	postStart []int32 // len bins+1
	postRef   []int32
	postVal   []float64
	// CSR of the class's non-zero reference cells (L1 only), ascending
	// bin order within each row, and the references carrying the class,
	// ascending — the rows the union merge visits.
	rowStart  []int32 // len n+1
	rowBin    []int32
	rowVal    []float64
	classRefs []int32
}

// MatchScratch holds the reusable buffers of the zero-allocation match
// path. The zero value is ready to use; buffers grow on first use and
// are retained across calls. A scratch must not be shared between
// concurrent MatchInto calls.
type MatchScratch struct {
	freqs  []float64 // candidate frequencies for the L1 merge
	scores []Score
	sims   []float64 // per-reference similarities, written by simsInto
	l1nz   []int32   // candidate support for the L1 merge
	acc    []float64 // per-class partial sums of the scatter
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

// compile builds the frozen snapshot from the live reference map.
func compile(db *Database) *CompiledDB {
	n := len(db.order)
	c := &CompiledDB{
		cfg:     db.cfg,
		measure: db.measure,
		addrs:   make([]dot11.Addr, n),
		index:   make(map[dot11.Addr]int, n),
		totals:  make([]uint64, n),
		bins:    db.cfg.Bins.Bins,
		stats:   IndexStats{Enabled: true, References: n},
	}
	copy(c.addrs, db.order)
	sigs := make([]*Signature, n) // each reference's signature, resolved once
	for r, addr := range c.addrs {
		c.index[addr] = r
		sigs[r] = db.refs[addr]
		c.totals[r] = sigs[r].total
	}
	for ci := range c.classes {
		c.compileClass(sigs, dot11.Class(ci))
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
	return c.topKAll(cands, k, 1, scratch, nil)
}

// TopKAllWorkers is TopKAllScratch fanned out across workers (0 selects
// GOMAXPROCS, 1 forces the serial path); results are identical for
// every worker count.
func (c *CompiledDB) TopKAllWorkers(cands []Candidate, k, workers int) [][]Score {
	return c.topKAll(cands, k, workers, nil, nil)
}

// TopKAllStream is TopKAllWorkers delivered in order as it is computed:
// emit(i, row) runs on the calling goroutine once for every candidate,
// in index order, as soon as rows [0, i] are ranked — while the workers
// still rank the rest. Rows are TopKAllWorkers's, handed off to emit and
// never reused (k <= 0 yields nil rows). A panic in a worker or in emit
// stops the batch and propagates to the caller once every worker has
// returned (see fanOut).
func (c *CompiledDB) TopKAllStream(cands []Candidate, k, workers int, emit func(i int, row []Score)) {
	c.topKAll(cands, k, workers, nil, emit)
}

// topKAll is matchAll for ranked rows: one backing of min(k, Len())
// scores per candidate, each row selected straight into it.
func (c *CompiledDB) topKAll(cands []Candidate, k, workers int, scratch *MatchScratch, emit func(int, []Score)) [][]Score {
	out := make([][]Score, len(cands))
	k = min(k, len(c.addrs))
	var backing []Score
	if k > 0 {
		backing = make([]Score, len(cands)*k)
	}
	fanOut(&workerScratch, scratch, len(cands), workers, func(s *MatchScratch, i int) {
		if k > 0 {
			out[i] = selectTop(backing[i*k:(i+1)*k:(i+1)*k], c.simsInto(cands[i].Sig, s), c.addrs)
		}
	}, rowEmitter(out, emit))
	return out
}

// rowEmitter adapts a per-row callback to fanOut's ordered emit over
// the rows being written into out; nil stays nil.
func rowEmitter(out [][]Score, emit func(int, []Score)) func(int) {
	if emit == nil {
		return nil
	}
	return func(i int) { emit(i, out[i]) }
}

// IndexStats describes the snapshot's sparse match layout.
func (c *CompiledDB) IndexStats() IndexStats { return c.stats }

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
	return c.matchAll(cands, workers, nil, nil)
}

// MatchAllScratch is the serial, caller-scratch form of MatchAll, built
// for per-shard reuse: one long-lived scratch per shard amortises the
// internal buffers across every window, while the returned rows (one
// backing allocation per call) are handed off to the caller and never
// aliased again. Row i is exactly Match(cands[i].Sig).
func (c *CompiledDB) MatchAllScratch(cands []Candidate, scratch *MatchScratch) [][]Score {
	return c.matchAll(cands, 1, scratch, nil)
}

// MatchAllStream is MatchAllWorkers delivered in order as it is
// computed, exactly as TopKAllStream is for ranked rows.
func (c *CompiledDB) MatchAllStream(cands []Candidate, workers int, emit func(i int, row []Score)) {
	c.matchAll(cands, workers, nil, emit)
}

// matchAll allocates the batch's rows in one backing and fans the
// candidates out (see fanOut): each row's similarity vector is written
// straight into that backing, then handed to emit in index order.
func (c *CompiledDB) matchAll(cands []Candidate, workers int, scratch *MatchScratch, emit func(int, []Score)) [][]Score {
	out := make([][]Score, len(cands))
	n := len(c.addrs)
	backing := make([]Score, len(cands)*n)
	fanOut(&workerScratch, scratch, len(cands), workers, func(s *MatchScratch, i int) {
		out[i] = c.matchRow(cands[i].Sig, s, backing[i*n:(i+1)*n:(i+1)*n])
	}, rowEmitter(out, emit))
	return out
}

// ForEachIndex runs fn(scratch, i) for every i in [0, n) across the
// given number of workers (0 ⇒ GOMAXPROCS, 1 ⇒ inline serial). Each
// worker owns one MatchScratch, so fn can use the zero-allocation
// matching entry points directly. Every index is processed exactly once
// and independently; as long as fn's writes are index-disjoint, the
// aggregate effect is identical for any worker count — the fan-out
// changes wall-clock time, never results. A panic in fn is re-raised on
// the caller after every worker has returned.
func ForEachIndex(n, workers int, fn func(scratch *MatchScratch, i int)) {
	fanOut(&workerScratch, nil, n, workers, fn, nil)
}

// workerScratch pools the fan-out's per-worker scratches, so a window's
// fan-out reuses the previous window's buffers instead of regrowing
// them. A worker that panics out of fn drops its scratch rather than
// returning it.
var workerScratch = sync.Pool{New: func() any { return new(MatchScratch) }}
