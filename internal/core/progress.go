package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Progress publishes the ordered completion of a batch of rows: writers
// mark rows done in any order, from any goroutine, and the count of
// the done prefix — rows [0, i) all written — advances as soon as the
// rows behind it are. One waiter follows that count with Wait, so a
// batch's consumer can hand row i on the moment it and every row before
// it are written, instead of after the whole batch.
//
// Everything a writer stored into row i before Mark(i) is visible to
// the waiter once Wait(i) returns true.
type Progress struct {
	done  atomic.Int64  // rows [0, done) are written
	ended atomic.Bool   // no row will be marked any more
	marks []atomic.Bool // per row: written
	wake  chan struct{} // one token after each advance, and at End
	// parked is the row the waiter is blocked on, or -1; resume
	// releases a writer that handed the waiter the processor.
	parked atomic.Int64
	resume chan struct{}
}

// NewProgress returns the progress of an n-row batch with no row
// written.
func NewProgress(n int) *Progress {
	p := &Progress{marks: make([]atomic.Bool, n), wake: make(chan struct{}, 1), resume: make(chan struct{}, 1)}
	p.parked.Store(-1)
	return p
}

// Mark records row i as written and advances the done prefix over every
// row now contiguous with it. When that releases the parked waiter,
// Mark hands it the processor before returning: with every processor
// busy — matching goroutines are CPU-bound for the length of a window —
// a woken waiter otherwise sits in the writer's run queue until the
// writer blocks or its time slice runs out (10 ms in the Go runtime),
// longer than most of a window's rows take to match. The writer blocks
// until the waiter has run, so the waiter runs at once and, when it
// blocks again, the writer is next on the same processor instead of
// queueing behind unrelated work.
func (p *Progress) Mark(i int) {
	p.marks[i].Store(true)
	advanced := false
	for {
		d := p.done.Load()
		if d >= int64(len(p.marks)) || !p.marks[d].Load() {
			break
		}
		// A failed swap means another writer advanced past d; reload.
		if p.done.CompareAndSwap(d, d+1) {
			advanced = true
		}
	}
	if advanced {
		p.signal()
		// Claim the park only if it waits on a row now done: a waiter
		// that already woke and parked again on a later row must not
		// be waited for.
		if w := p.parked.Load(); w >= 0 && w < p.done.Load() && p.parked.CompareAndSwap(w, -1) {
			<-p.resume
		}
	}
}

// End records that no further row will be marked — the writers
// finished, or stopped early on a fault. Wait then reports the rows
// never written instead of blocking on them.
func (p *Progress) End() {
	p.ended.Store(true)
	p.signal()
}

func (p *Progress) signal() {
	select {
	case p.wake <- struct{}{}:
	default: // a token is already pending; the waiter re-reads the count
	}
}

// Wait blocks until row i and every row before it are written,
// reporting true, or until the batch ends without row i, reporting
// false. Only one goroutine may wait on a Progress, consuming rows in
// ascending order.
func (p *Progress) Wait(i int) bool {
	for {
		if p.done.Load() > int64(i) {
			return true
		}
		if p.ended.Load() {
			return p.done.Load() > int64(i)
		}
		p.parked.Store(int64(i))
		if p.done.Load() <= int64(i) && !p.ended.Load() {
			<-p.wake
		}
		if !p.parked.CompareAndSwap(int64(i), -1) {
			p.resume <- struct{}{} // a writer handed over in Mark: release it
		}
	}
}

// fanOut runs fn(s, i) for every i in [0, n) and, when emit is non-nil,
// calls emit(i) on the calling goroutine for every i in ascending order,
// each as soon as rows [0, i] are done — while the rest are still being
// computed. With own set, or at most one worker (workers 0 ⇒
// GOMAXPROCS), the rows run inline on the caller with own or a pooled
// scratch, each emitted right after it is computed. Otherwise the
// caller and workers−1 helper goroutines claim rows in ascending order,
// each with a scratch from pool (whose New must return a *S), and a
// Progress orders their completions: the caller emits the ready prefix
// after each of its own rows, and leaves the batch's last rows to the
// helpers so that it is free to emit while they finish them.
//
// Every index is processed exactly once and independently, so as long
// as fn's writes are index-disjoint the result is identical for any
// worker count. A panic in fn stops the fan-out: no further row is
// claimed, rows before the first faulting one are still emitted, every
// helper is waited for, and the panic is re-raised on the caller. A
// panic in emit likewise stops the helpers and waits for them before it
// propagates. No goroutine outlives the call.
func fanOut[S any](pool *sync.Pool, own *S, n, workers int, fn func(s *S, i int), emit func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if own != nil || workers <= 1 {
		s := own
		if s == nil {
			s = pool.Get().(*S)
		}
		for i := 0; i < n; i++ {
			fn(s, i)
			if emit != nil {
				emit(i)
			}
		}
		if own == nil {
			pool.Put(s)
		}
		return
	}
	p := NewProgress(n)
	var next atomic.Int64
	var fault atomic.Pointer[workerFault]
	claim := func(limit int) (int, bool) {
		for {
			i := next.Load()
			if i >= int64(limit) {
				return 0, false
			}
			if next.CompareAndSwap(i, i+1) {
				return int(i), true
			}
		}
	}
	// row computes and marks row i, recording a panic as the batch's
	// fault; a goroutine that faulted drops its scratch.
	row := func(s *S, i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				fault.CompareAndSwap(nil, &workerFault{r})
				next.Store(int64(n)) // no row is claimed after a fault
			}
		}()
		fn(s, i)
		p.Mark(i)
		return true
	}
	// The last row producer out ends the batch, so every row claimed
	// before a fault is written before Wait gives up on it.
	var live atomic.Int32
	live.Store(int32(workers))
	done := func() {
		if live.Add(-1) == 0 {
			p.End()
		}
	}
	helpers := workers - 1
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			defer done()
			s := pool.Get().(*S)
			for {
				i, ok := claim(n)
				if !ok {
					break
				}
				if !row(s, i) {
					return
				}
			}
			pool.Put(s)
		}()
	}
	func() {
		finished := false
		defer func() {
			if !finished {
				next.Store(int64(n)) // emit panicked: stop claiming rows
			}
			wg.Wait()
		}()
		limit, emitted := n, 0
		if emit != nil {
			limit = n - helpers
		}
		s := pool.Get().(*S)
		for {
			i, ok := claim(limit)
			if !ok {
				pool.Put(s)
				break
			}
			if !row(s, i) {
				break
			}
			for ; emit != nil && int64(emitted) < p.done.Load(); emitted++ {
				emit(emitted)
			}
		}
		done()
		for ; emit != nil && emitted < n && p.Wait(emitted); emitted++ {
			emit(emitted)
		}
		finished = true
	}()
	if f := fault.Load(); f != nil {
		panic(f.v)
	}
}

// workerFault carries a worker's recovered panic value to the caller.
type workerFault struct{ v any }
