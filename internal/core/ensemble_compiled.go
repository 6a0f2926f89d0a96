package core

import (
	"slices"
	"sync"

	"dot11fp/internal/dot11"
)

// CompiledEnsemble is an immutable, matching-optimised snapshot of an
// Ensemble: every member frozen as its CompiledDB, the fully-known
// reference set (devices present in every member) resolved once with
// per-member row indices precomputed, so fused matching costs one
// member MatchInto per member plus one float add per (reference,
// member) pair — no map lookups, no per-candidate freshness checks, no
// allocation with a caller-owned EnsembleScratch.
//
// Fused scores are bit-identical to averaging per-pair Similarity
// calls: each member contributes through the same compiled kernel as
// its standalone CompiledDB, members are summed in member order, and
// the mean is taken by the same division.
//
// A CompiledEnsemble is safe for concurrent use; each goroutine needs
// its own EnsembleScratch for the zero-allocation entry points.
type CompiledEnsemble struct {
	members []*CompiledDB
	addrs   []dot11.Addr       // fully-known references, member-0 insertion order
	index   map[dot11.Addr]int // addr → position in addrs
	rowIdx  [][]int            // [member][i] = addrs[i]'s row in members[member]
	fusedOf [][]int32          // [member][row] = fused index of that member row, -1 if not fully known
	partial []dot11.Addr       // known to ≥1 member but not all (ascending)

	scratch sync.Pool // *EnsembleScratch, for the scratchless conveniences
}

// EnsembleScratch holds the reusable buffers of the zero-allocation
// fused match path: one MatchScratch per member plus the fused score
// vector. The zero value is ready to use; buffers grow on first use and
// are retained across calls. A scratch must not be shared between
// concurrent MatchInto calls.
type EnsembleScratch struct {
	member []MatchScratch
	rows   [][]Score
	fused  []Score
	sims   []float64 // fused similarities, written by fusedSims
}

// grow sizes the scratch for ce.
func (s *EnsembleScratch) grow(ce *CompiledEnsemble) {
	if cap(s.member) < len(ce.members) {
		s.member = make([]MatchScratch, len(ce.members))
		s.rows = make([][]Score, len(ce.members))
	}
	s.member = s.member[:len(ce.members)]
	s.rows = s.rows[:len(ce.members)]
	if cap(s.fused) < len(ce.addrs) {
		s.fused = make([]Score, len(ce.addrs))
	}
}

// Compile freezes the ensemble's current references into a
// CompiledEnsemble. The snapshot is cached: as long as every member's
// own Compile returns its cached snapshot (references unchanged), the
// fused snapshot is reused too — one O(members × references) freshness
// check per call, performed once per reference swap by the engines, not
// per candidate.
func (e *Ensemble) Compile() *CompiledEnsemble {
	e.mu.Lock()
	defer e.mu.Unlock()
	members := make([]*CompiledDB, len(e.dbs))
	fresh := e.compiled != nil
	for i, db := range e.dbs {
		members[i] = db.Compile()
		if fresh && e.compiled.members[i] != members[i] {
			fresh = false // a member recompiled: the fused snapshot is stale
		}
	}
	if !fresh {
		e.compiled = compileEnsemble(members)
	}
	return e.compiled
}

// compileEnsemble resolves the fused reference set from frozen member
// snapshots.
func compileEnsemble(members []*CompiledDB) *CompiledEnsemble {
	ce := &CompiledEnsemble{
		members: members,
		index:   make(map[dot11.Addr]int),
		rowIdx:  make([][]int, len(members)),
	}
	// Fully-known set: member 0's insertion order filtered to devices
	// present in every member — the same order Ensemble.Match has always
	// emitted.
	for _, addr := range members[0].addrs {
		known := true
		for _, m := range members[1:] {
			if _, ok := m.index[addr]; !ok {
				known = false
				break
			}
		}
		if known {
			ce.index[addr] = len(ce.addrs)
			ce.addrs = append(ce.addrs, addr)
		}
	}
	ce.fusedOf = make([][]int32, len(members))
	for mi, m := range members {
		rows := make([]int, len(ce.addrs))
		of := make([]int32, m.Len())
		for r := range of {
			of[r] = -1
		}
		for i, addr := range ce.addrs {
			rows[i] = m.index[addr]
			of[rows[i]] = int32(i)
		}
		ce.rowIdx[mi] = rows
		ce.fusedOf[mi] = of
	}
	// Partially-known devices, for operator reporting.
	seen := make(map[dot11.Addr]bool)
	for _, m := range members {
		for _, addr := range m.addrs {
			if _, full := ce.index[addr]; !full && !seen[addr] {
				seen[addr] = true
				ce.partial = append(ce.partial, addr)
			}
		}
	}
	sortAddrs(ce.partial)
	return ce
}

// Members returns the frozen member snapshots in parameter order.
func (ce *CompiledEnsemble) Members() []*CompiledDB {
	out := make([]*CompiledDB, len(ce.members))
	copy(out, ce.members)
	return out
}

// Params returns the member parameters in order.
func (ce *CompiledEnsemble) Params() []Param {
	out := make([]Param, len(ce.members))
	for i, m := range ce.members {
		out[i] = m.Config().Param
	}
	return out
}

// Configs returns the member extraction configurations in order.
func (ce *CompiledEnsemble) Configs() []Config {
	out := make([]Config, len(ce.members))
	for i, m := range ce.members {
		out[i] = m.Config()
	}
	return out
}

// Measure returns the similarity measure shared by every member.
func (ce *CompiledEnsemble) Measure() Measure { return ce.members[0].Measure() }

// Len returns the number of fully-known (matchable) reference devices.
func (ce *CompiledEnsemble) Len() int { return len(ce.addrs) }

// Devices returns the fully-known reference addresses in the fused
// vector order.
func (ce *CompiledEnsemble) Devices() []dot11.Addr {
	out := make([]dot11.Addr, len(ce.addrs))
	copy(out, ce.addrs)
	return out
}

// Partial returns the devices known to at least one member but not all
// at compile time (never matchable; see Ensemble.Partial). Ascending
// address order.
func (ce *CompiledEnsemble) Partial() []dot11.Addr {
	out := make([]dot11.Addr, len(ce.partial))
	copy(out, ce.partial)
	return out
}

// MatchInto computes the fused similarity vector of a multi-parameter
// candidate against every fully-known reference into the scratch
// buffers: fused[i] is the mean of the member similarities for
// Devices()[i], and perParam[m] is member m's full similarity vector
// (that member's own reference order — partially-known devices score in
// their members but never fuse). It performs no allocation once the
// scratch has warmed up; both results are only valid until the
// scratch's next use. A candidate whose member count mismatches returns
// nil, nil.
func (ce *CompiledEnsemble) MatchInto(c MultiCandidate, s *EnsembleScratch) (fused []Score, perParam [][]Score) {
	if len(c.Sigs) != len(ce.members) {
		return nil, nil
	}
	s.grow(ce)
	for m, cdb := range ce.members {
		ms := &s.member[m]
		if cap(ms.scores) < cdb.Len() {
			ms.scores = make([]Score, cdb.Len())
		}
		s.rows[m] = ms.scores[:cdb.Len()]
	}
	fused = s.fused[:len(ce.addrs)]
	ce.matchRows(c, s, fused, s.rows)
	return fused, s.rows
}

// matchRows writes member m's similarity vector into rows[m] (length
// members[m].Len()) and the fused vector into fused (length Len()),
// using s only for the kernels' working buffers. c must carry one
// signature per member.
func (ce *CompiledEnsemble) matchRows(c MultiCandidate, s *EnsembleScratch, fused []Score, rows [][]Score) {
	sims := ce.fusedSims(c, s)
	for m, cdb := range ce.members {
		ms := s.member[m].sims
		for r, addr := range cdb.addrs {
			rows[m][r] = Score{Addr: addr, Sim: ms[r]}
		}
	}
	for i, addr := range ce.addrs {
		fused[i] = Score{Addr: addr, Sim: sims[i]}
	}
}

// fusedSims computes every member's similarity vector into its member
// scratch (simsInto), then the fused vector into s.sims and returns it
// (length Len(), valid until the scratch's next use): per fully-known
// reference, the member similarities summed in member order and divided
// by the member count. s must have been grown for ce and c must carry
// one signature per member.
func (ce *CompiledEnsemble) fusedSims(c MultiCandidate, s *EnsembleScratch) []float64 {
	for m, cdb := range ce.members {
		cdb.simsInto(c.Sigs[m], &s.member[m])
	}
	n := len(ce.addrs)
	if cap(s.sims) < n {
		s.sims = make([]float64, n)
	}
	sims := s.sims[:n]
	div := float64(len(ce.members))
	for i := range sims {
		sum := 0.0
		for m := range ce.members {
			sum += s.member[m].sims[ce.rowIdx[m][i]]
		}
		sims[i] = sum / div
	}
	return sims
}

// getScratch pops a pooled scratch for the scratchless conveniences.
func (ce *CompiledEnsemble) getScratch() *EnsembleScratch {
	if s, ok := ce.scratch.Get().(*EnsembleScratch); ok {
		return s
	}
	return &EnsembleScratch{}
}

// Match computes the fused and per-member similarity vectors into
// freshly allocated slices.
func (ce *CompiledEnsemble) Match(c MultiCandidate) (fused []Score, perParam [][]Score) {
	s := ce.getScratch()
	defer ce.scratch.Put(s)
	f, rows := ce.MatchInto(c, s)
	if f == nil {
		return nil, nil
	}
	fused = append(make([]Score, 0, len(f)), f...)
	perParam = make([][]Score, len(rows))
	for m, row := range rows {
		perParam[m] = append(make([]Score, 0, len(row)), row...)
	}
	return fused, perParam
}

// Best returns the arg-max fused reference, with ok=false for an empty
// (or mismatched) candidate or reference set: the fused top-1 selection,
// so ties resolve to the earliest fused index, exactly as the first
// strict maximum of the fused vector does.
func (ce *CompiledEnsemble) Best(c MultiCandidate) (Score, bool) {
	s := ce.getScratch()
	defer ce.scratch.Put(s)
	res := ce.TopKInto(c, 1, s)
	if len(res) == 0 {
		return Score{Sim: -1}, false
	}
	return res[0], res[0].Sim >= 0
}

// MatchAll fuse-matches a batch of candidates across GOMAXPROCS
// workers; see MatchAllWorkers.
func (ce *CompiledEnsemble) MatchAll(cands []MultiCandidate) (fused [][]Score, perParam [][][]Score) {
	return ce.MatchAllWorkers(cands, 0)
}

// MatchAllWorkers fuse-matches a batch of candidates with an explicit
// worker cap (0 selects GOMAXPROCS, 1 forces the serial path). Row i of
// fused (and perParam[i][m] per member) is exactly Match(cands[i]) —
// every row is computed independently and written at its own index, so
// worker scheduling cannot affect the output. Rows share per-call
// backing allocations and are handed off to the caller, never reused. A
// mismatched candidate yields nil rows.
func (ce *CompiledEnsemble) MatchAllWorkers(cands []MultiCandidate, workers int) (fused [][]Score, perParam [][][]Score) {
	return ce.matchAll(cands, workers, nil, nil)
}

// MatchAllScratch is the serial, caller-scratch form of MatchAll, built
// for per-shard reuse: one long-lived scratch amortises the internal
// buffers across every window, while the returned rows (per-call
// backing) are handed off to the caller and never aliased again.
func (ce *CompiledEnsemble) MatchAllScratch(cands []MultiCandidate, s *EnsembleScratch) (fused [][]Score, perParam [][][]Score) {
	return ce.matchAll(cands, 1, s, nil)
}

// MatchAllStream is MatchAllWorkers delivered in order as it is
// computed: emit(i, fused, perParam) runs on the calling goroutine once
// for every candidate, in index order, as soon as rows [0, i] are
// matched (see CompiledDB.TopKAllStream).
func (ce *CompiledEnsemble) MatchAllStream(cands []MultiCandidate, workers int, emit func(i int, fused []Score, perParam [][]Score)) {
	ce.matchAll(cands, workers, nil, emit)
}

// matchAll allocates the batch's fused and member rows in per-call
// backings and fans the candidates out (see fanOut): each row writes
// every vector straight into those backings, then is handed to emit in
// index order.
func (ce *CompiledEnsemble) matchAll(cands []MultiCandidate, workers int, own *EnsembleScratch, emit func(int, []Score, [][]Score)) (fused [][]Score, perParam [][][]Score) {
	fused = make([][]Score, len(cands))
	perParam = make([][][]Score, len(cands))
	if len(cands) == 0 {
		return fused, perParam
	}
	n, nm := len(ce.addrs), len(ce.members)
	fusedBacking := make([]Score, len(cands)*n)
	memberBacking := make([][]Score, nm)
	rowBacking := make([][]Score, len(cands)*nm)
	for m, cdb := range ce.members {
		memberBacking[m] = make([]Score, len(cands)*cdb.Len())
	}
	var ready func(int)
	if emit != nil {
		ready = func(i int) { emit(i, fused[i], perParam[i]) }
	}
	fanOut(&ensembleWorkerScratch, own, len(cands), workers, func(s *EnsembleScratch, i int) {
		if len(cands[i].Sigs) != nm {
			return
		}
		s.grow(ce)
		rows := rowBacking[i*nm : (i+1)*nm : (i+1)*nm]
		for m, cdb := range ce.members {
			k := cdb.Len()
			rows[m] = memberBacking[m][i*k : (i+1)*k : (i+1)*k]
		}
		fused[i] = fusedBacking[i*n : (i+1)*n : (i+1)*n]
		ce.matchRows(cands[i], s, fused[i], rows)
		perParam[i] = rows
	}, ready)
	return fused, perParam
}

// TopKInto returns the k best fused references (ties toward the earlier
// fused index, as Best picks), writing into the scratch's buffers; the
// result is only valid until the scratch's next use. It selects from
// the fused vector, so scores, order and ties are bit-identical to
// ranking the fused MatchInto vector. k is clamped to Len(); k <= 0 or
// a member-count mismatch returns nil. It performs no allocation once
// the scratch has warmed up.
//
//fp:hotpath test=TestEnsembleTopKIntoZeroAlloc
func (ce *CompiledEnsemble) TopKInto(c MultiCandidate, k int, s *EnsembleScratch) []Score {
	k = min(k, len(ce.addrs))
	if len(c.Sigs) != len(ce.members) || k <= 0 {
		return nil
	}
	s.grow(ce)
	return selectTop(s.fused[:k], ce.fusedSims(c, s), ce.addrs)
}

// TopK is the allocating convenience form of TopKInto.
func (ce *CompiledEnsemble) TopK(c MultiCandidate, k int) []Score {
	s := ce.getScratch()
	defer ce.scratch.Put(s)
	return slices.Clone(ce.TopKInto(c, k, s))
}

// TopKAllScratch ranks a batch of multi-parameter candidates through
// one long-lived scratch, returning min(k, Len()) fused scores per
// candidate in one backing allocation. Row i is exactly
// TopK(cands[i], k); a mismatched candidate yields a nil row.
func (ce *CompiledEnsemble) TopKAllScratch(cands []MultiCandidate, k int, s *EnsembleScratch) [][]Score {
	return ce.topKAll(cands, k, 1, s, nil)
}

// TopKAllWorkers is TopKAllScratch fanned out across workers (0 selects
// GOMAXPROCS, 1 forces the serial path); results are identical for
// every worker count.
func (ce *CompiledEnsemble) TopKAllWorkers(cands []MultiCandidate, k, workers int) [][]Score {
	return ce.topKAll(cands, k, workers, nil, nil)
}

// TopKAllStream is TopKAllWorkers delivered in order as it is computed,
// exactly as CompiledDB.TopKAllStream is for a single parameter.
func (ce *CompiledEnsemble) TopKAllStream(cands []MultiCandidate, k, workers int, emit func(i int, fused []Score)) {
	ce.topKAll(cands, k, workers, nil, emit)
}

// topKAll is matchAll for ranked fused rows: one backing of
// min(k, Len()) scores per candidate, each row selected straight into
// it.
func (ce *CompiledEnsemble) topKAll(cands []MultiCandidate, k, workers int, own *EnsembleScratch, emit func(int, []Score)) [][]Score {
	out := make([][]Score, len(cands))
	k = min(k, len(ce.addrs))
	var backing []Score
	if k > 0 {
		backing = make([]Score, len(cands)*k)
	}
	fanOut(&ensembleWorkerScratch, own, len(cands), workers, func(s *EnsembleScratch, i int) {
		if k <= 0 || len(cands[i].Sigs) != len(ce.members) {
			return
		}
		s.grow(ce)
		out[i] = selectTop(backing[i*k:(i+1)*k:(i+1)*k], ce.fusedSims(cands[i], s), ce.addrs)
	}, rowEmitter(out, emit))
	return out
}

// IndexStats aggregates the members' index stats, sizes summed across
// members.
func (ce *CompiledEnsemble) IndexStats() IndexStats {
	agg := IndexStats{Enabled: true}
	for _, m := range ce.members {
		st := m.IndexStats()
		agg.References += st.References
		agg.Entries += st.Entries
		agg.Postings += st.Postings
		agg.IndexBytes += st.IndexBytes
		agg.DenseBytes += st.DenseBytes
		agg.Classes = max(agg.Classes, st.Classes)
	}
	return agg
}

// ensembleWorkerScratch pools the ensemble fan-out's per-worker
// scratches, like workerScratch.
var ensembleWorkerScratch = sync.Pool{New: func() any { return new(EnsembleScratch) }}
