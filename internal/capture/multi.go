package capture

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// MergeMode selects how MultiStream interleaves its sources.
type MergeMode uint8

const (
	// MergeByTime interleaves records in ascending timestamp order (a
	// k-way merge over the per-source heads) — deterministic for file
	// inputs whose sources share a timebase (or are rebased). A stalled
	// source stalls the merge, so use MergeArrival for unsynchronised
	// live feeds.
	MergeByTime MergeMode = iota
	// MergeArrival interleaves records as they become available from
	// any source — the right mode for live FIFOs and stdin feeds, at
	// the cost of a nondeterministic (arrival-dependent) interleaving.
	MergeArrival
)

// RecordSource is anything that yields capture records one at a time,
// ending with io.EOF. StreamReader implements it.
type RecordSource interface {
	Next() (Record, error)
}

// skipCounter is the optional decode-skip counter a source can expose
// (StreamReader does); MultiStream uses it for per-source stats and
// the circuit breaker.
type skipCounter interface {
	Skipped() uint64
}

// Supervisor configures per-source supervision for a MultiStream. The
// zero value supervises nothing (sources retire on their first error,
// the pre-supervision behaviour); setting Reopen enables reopen with
// retry, exponential backoff and jitter, and setting BreakerWindow
// enables the decode-error circuit breaker.
type Supervisor struct {
	// Reopen rebuilds source i after a failure. It runs on the pump
	// goroutine (so it may block in open(2) on a FIFO) and its error
	// counts as one failed attempt. nil disables reopening: any source
	// error is terminal for that source.
	Reopen func(source int) (RecordSource, error)
	// ReopenOnEOF reports whether a clean io.EOF from source i should
	// trigger a reopen too — true for FIFOs, where EOF just means the
	// writer hung up; false (or nil) for files, where EOF is the end.
	ReopenOnEOF func(source int) bool
	// MaxAttempts bounds consecutive failed reopen attempts before the
	// source is declared permanently down. 0 selects 8; negative means
	// retry forever.
	MaxAttempts int
	// Backoff is the delay before the first reopen attempt, doubling
	// per failure up to MaxBackoff, each wait jittered ±50%. 0 selects
	// 100 ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling. 0 selects 30 s.
	MaxBackoff time.Duration
	// BreakerWindow enables the per-source circuit breaker: over a
	// rolling window of this many reads, a decode-error fraction of
	// BreakerRate or more fails the source with ErrBreakerTripped
	// (which then reopens like any failure, with backoff — so a
	// decode-error storm degrades the source instead of spinning the
	// CPU on garbage). 0 disables.
	BreakerWindow int
	// BreakerRate is the tripping decode-error fraction; 0 selects 0.5.
	BreakerRate float64
	// Seed seeds the backoff jitter, making chaos runs replayable.
	Seed int64
	// Notify, when non-nil, receives SourceDown/SourceUp events. It is
	// called from pump goroutines and must not call back into the
	// MultiStream.
	Notify func(SourceEvent)
}

func (s *Supervisor) enabled() bool { return s.Reopen != nil }

func (s *Supervisor) maxAttempts() int {
	switch {
	case s.MaxAttempts == 0:
		return 8
	case s.MaxAttempts < 0:
		return 0 // unlimited
	}
	return s.MaxAttempts
}

func (s *Supervisor) backoff() time.Duration {
	if s.Backoff <= 0 {
		return 100 * time.Millisecond
	}
	return s.Backoff
}

func (s *Supervisor) maxBackoff() time.Duration {
	if s.MaxBackoff <= 0 {
		return 30 * time.Second
	}
	return s.MaxBackoff
}

func (s *Supervisor) breakerRate() float64 {
	if s.BreakerRate <= 0 {
		return 0.5
	}
	return s.BreakerRate
}

func (s *Supervisor) reopenOnEOF(i int) bool {
	return s.ReopenOnEOF != nil && s.ReopenOnEOF(i)
}

func (s *Supervisor) notify(ev SourceEvent) {
	if s.Notify != nil {
		s.Notify(ev)
	}
}

// ErrBreakerTripped reports a source failed by its decode-error-rate
// circuit breaker.
var ErrBreakerTripped = errors.New("capture: decode-error rate tripped the source circuit breaker")

// SourceEvent is a supervision event: SourceDown or SourceUp.
type SourceEvent interface{ sourceEvent() }

// SourceDown reports a source failure. With Permanent false the
// supervisor is about to retry after Retry; with Permanent true the
// source has exhausted its attempts and is retired (its terminal error
// also lands in Err).
type SourceDown struct {
	Source    int
	Err       error
	Retry     time.Duration
	Permanent bool
}

func (SourceDown) sourceEvent() {}

// SourceUp reports a successful reopen after Attempts tries.
type SourceUp struct {
	Source   int
	Attempts int
}

func (SourceUp) sourceEvent() {}

// SourceStats is one source's supervision counters, a snapshot from
// MultiStream.SourceStats.
// The JSON field names are a stable API surface shared by the HTTP
// server and the /metrics encoder (TestSnapshotJSONStable pins them).
type SourceStats struct {
	// Records delivered into the merge.
	Records uint64 `json:"records"`
	// DecodeErrors skipped-and-counted by the source (undecodable
	// frames; see StreamReader.Skipped).
	DecodeErrors uint64 `json:"decode_errors"`
	// Failures is source errors plus failed reopen attempts.
	Failures uint64 `json:"failures"`
	// Reopens is successful reopens.
	Reopens uint64 `json:"reopens"`
	// Down reports the source is currently failed (reopening or
	// retired).
	Down bool `json:"down"`
	// Permanent reports the source exhausted its reopen attempts.
	Permanent bool `json:"permanent"`
}

// srcState is one source's supervision state. Counters are atomics so
// SourceStats can snapshot them from any goroutine without touching
// the pump's hot path with a lock; the breaker fields belong to the
// pump goroutine alone.
type srcState struct {
	records      atomic.Uint64
	decodeErrors atomic.Uint64
	failures     atomic.Uint64
	reopens      atomic.Uint64
	down         atomic.Bool
	permanent    atomic.Bool

	mu  sync.Mutex
	cur RecordSource // current generation, for Close to unblock

	// pump-goroutine-only rolling breaker window
	lastSkipped     uint64
	brTotal, brErrs int
}

func (st *srcState) setCur(src RecordSource) {
	st.mu.Lock()
	st.cur = src
	st.mu.Unlock()
	st.lastSkipped = 0
	st.brTotal, st.brErrs = 0, 0
}

// closeCur closes the source's current generation when it is closable,
// unblocking a pump stuck in a blocking read (a FIFO with a wedged
// writer, say).
func (st *srcState) closeCur() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if c, ok := st.cur.(io.Closer); ok {
		_ = c.Close() // closing to unblock the pump; the error has no reader
	}
}

// observe accounts one successful read on the pump goroutine: decode
// skips since the last read feed the stats counter and, when the
// breaker is enabled, the rolling error-rate window. A non-nil return
// is the breaker tripping.
func (st *srcState) observe(src RecordSource, sup *Supervisor) error {
	sc, ok := src.(skipCounter)
	if !ok {
		return nil
	}
	sk := sc.Skipped()
	d := sk - st.lastSkipped
	st.lastSkipped = sk
	if d > 0 {
		st.decodeErrors.Add(d)
	}
	if sup.BreakerWindow <= 0 {
		return nil
	}
	st.brErrs += int(d)
	st.brTotal += int(d) + 1
	if st.brTotal < sup.BreakerWindow {
		return nil
	}
	if float64(st.brErrs)/float64(st.brTotal) >= sup.breakerRate() {
		return fmt.Errorf("%w: %d of last %d reads", ErrBreakerTripped, st.brErrs, st.brTotal)
	}
	// Halve instead of resetting so the window rolls: a storm that
	// straddles a boundary still trips.
	st.brErrs /= 2
	st.brTotal /= 2
	return nil
}

// MultiStream merges several record sources into one stream — several
// monitors (or several pcap files / FIFOs) feeding one fingerprinting
// engine. Each source is decoded on its own goroutine into a per-source
// queue that the merge drains in bulk: the pump publishes every record
// the moment it is decoded (no record is held back, so a live feed adds
// no latency), and the merge swaps out everything published so far
// under one lock, then serves it from a local cursor. The merge
// preserves each source's internal order.
//
// With Rebase, each source's timestamps are shifted so its first record
// lands at offset zero — aligning captures whose clocks never shared an
// epoch. Without it, sources are assumed to share a timebase.
//
// With a Supervisor, a failed source is reopened with backoff instead
// of retiring: the stream degrades (SourceDown) and recovers
// (SourceUp) per source, and only a source that exhausts its attempts
// — or every source ending — terminates anything. A dead source never
// terminates Next for the healthy ones.
//
// Next must be called from a single goroutine. Close may be called from
// any goroutine to stop the stream early: pending sources are released
// (sources implementing io.Closer are closed, unblocking stuck reads)
// and Next returns io.EOF once the published records run out.
type MultiStream struct {
	mode    MergeMode
	sup     Supervisor
	qs      []srcQueue
	ready   chan struct{} // MergeArrival: the wake-up shared by every queue
	rr      int           // MergeArrival: the source whose batch is being served
	stop    chan struct{}
	stopped sync.Once
	live    int // sources whose terminal event is not yet consumed
	srcs    []*srcState

	mu   sync.Mutex
	errs []error
}

// srcEvent is one decoded record or a source's terminal error.
type srcEvent struct {
	rec Record
	err error // io.EOF for clean end of source
}

// multiPrefetch is the per-source decode depth: the most records a
// pump publishes before it waits for the merge. Large enough to keep
// decode goroutines busy across merge scheduling, small enough that
// Close never strands much work.
const multiPrefetch = 512

// srcQueue is the hand-off from one source's pump to the merge. The
// pump appends each record to buf under mu; the merge takes the whole
// of buf in one swap, handing back its drained local buffer as the next
// buf, so the two never share a backing array and the steady state
// allocates nothing.
type srcQueue struct {
	mu  sync.Mutex
	buf []srcEvent // published, not yet taken; guarded by mu
	// ready (cap 1) is signalled when buf goes non-empty. MergeArrival
	// shares one ready channel across every source.
	ready chan struct{}
	// space (cap 1) is signalled when the merge takes a full buf.
	space chan struct{}

	// Keep the merge-only fields off the cache line the pump writes per
	// record (and the next queue's, below).
	_ [64]byte

	// merge-goroutine-only
	local []srcEvent // the taken batch; served from local[pos:]
	pos   int
	done  bool // terminal event consumed, or stopped with nothing left

	_ [64]byte
}

func (q *srcQueue) init(ready chan struct{}) {
	q.buf = make([]srcEvent, 0, multiPrefetch)
	q.ready = ready
	q.space = make(chan struct{}, 1)
	q.local = make([]srcEvent, 0, multiPrefetch)
}

// put publishes ev, waiting for space while buf is full. It reports
// false once stop is closed (ev is then dropped), so a pump whose
// source cannot be closed still stops publishing after Close.
func (q *srcQueue) put(ev srcEvent, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		q.mu.Lock()
		if n := len(q.buf); n < multiPrefetch {
			q.buf = append(q.buf, ev)
			q.mu.Unlock()
			if n == 0 {
				select {
				case q.ready <- struct{}{}:
				default: // a wake-up is already pending
				}
			}
			return true
		}
		q.mu.Unlock()
		select {
		case <-q.space:
		case <-stop:
		}
	}
}

// take swaps the published buffer in as the local batch and reports
// whether it holds anything. The local batch must be fully consumed.
func (q *srcQueue) take() bool {
	q.mu.Lock()
	if len(q.buf) == 0 {
		q.mu.Unlock()
		return false
	}
	q.local, q.buf = q.buf, q.local[:0]
	q.mu.Unlock()
	q.pos = 0
	if len(q.local) == multiPrefetch {
		// The pump may be waiting for space.
		select {
		case q.space <- struct{}{}:
		default:
		}
	}
	return true
}

// pending reports whether the local batch holds an unconsumed event,
// taking the published buffer when the batch is spent.
func (q *srcQueue) pending() bool {
	return q.pos < len(q.local) || q.take()
}

// pop consumes the head of the local batch, clearing its slot so the
// buffer retains no record's ProbeIEs once it is handed back.
func (q *srcQueue) pop() srcEvent {
	ev := q.local[q.pos]
	q.local[q.pos] = srcEvent{}
	q.pos++
	return ev
}

// retire ends q's source at its terminal event, recording err unless
// it is io.EOF, a clean end.
func (m *MultiStream) retire(q *srcQueue, err error) {
	q.done = true
	m.live--
	if err == io.EOF {
		return
	}
	m.mu.Lock()
	m.errs = append(m.errs, err)
	m.mu.Unlock()
}

// MultiOptions configures NewMultiStreamOpts.
type MultiOptions struct {
	// Mode selects the merge discipline.
	Mode MergeMode
	// Rebase shifts each source's timestamps so its first record lands
	// at offset zero; after a supervised reopen, the new generation
	// continues at the last delivered timestamp + 1 µs, keeping the
	// source's stream monotonic across a restarted (fresh-epoch)
	// capture.
	Rebase bool
	// Supervisor configures per-source supervision; the zero value
	// supervises nothing.
	Supervisor Supervisor
}

// NewMultiStream merges the given sources without supervision. rebase
// shifts each source's timestamps so its first record is at offset
// zero.
func NewMultiStream(mode MergeMode, rebase bool, sources ...RecordSource) *MultiStream {
	return NewMultiStreamOpts(MultiOptions{Mode: mode, Rebase: rebase}, sources...)
}

// NewMultiStreamOpts merges the given sources with full options.
func NewMultiStreamOpts(opts MultiOptions, sources ...RecordSource) *MultiStream {
	m := &MultiStream{
		mode: opts.Mode,
		sup:  opts.Supervisor,
		qs:   make([]srcQueue, len(sources)),
		stop: make(chan struct{}),
		live: len(sources),
		srcs: make([]*srcState, len(sources)),
	}
	if opts.Mode == MergeArrival {
		m.ready = make(chan struct{}, 1)
	}
	for i := range sources {
		m.srcs[i] = &srcState{}
		ready := m.ready
		if ready == nil {
			ready = make(chan struct{}, 1)
		}
		m.qs[i].init(ready)
	}
	for i, src := range sources {
		go m.pump(i, src, opts.Rebase)
	}
	return m
}

// sleep waits d or until Close; it reports whether the wait completed.
func (m *MultiStream) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-m.stop:
		return false
	}
}

// jitter spreads a backoff uniformly over [d/2, d), so a fleet of
// sources failing together does not reopen in lockstep.
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	if rng == nil || d <= 1 {
		return d
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)))
}

// pump decodes one source into its queue until EOF, terminal error, or
// Close — supervising the source through failures when a Reopen
// factory is configured.
func (m *MultiStream) pump(i int, src RecordSource, rebase bool) {
	st := m.srcs[i]
	q := &m.qs[i]
	st.setCur(src)
	var rng *rand.Rand
	if m.sup.enabled() {
		rng = rand.New(rand.NewSource(m.sup.Seed + int64(i)*0x9E3779B9))
	}
	var (
		offset   int64
		first    = true
		lastT    int64
		haveLast bool
		pending  error // breaker trip carried over a delivered record
	)
	for {
		var rec Record
		var err error
		if pending != nil {
			err, pending = pending, nil
		} else {
			rec, err = src.Next()
		}
		if err == nil {
			// The tripping record itself is healthy — deliver it, fail
			// the source on the next iteration.
			pending = st.observe(src, &m.sup)
			if rebase {
				if first {
					if haveLast {
						// Reopened generation: splice onto the stream 1 µs
						// after the last delivered record so the source's
						// timestamps stay monotonic across a restart.
						offset = rec.T - (lastT + 1)
					} else {
						offset = rec.T
					}
					first = false
				}
				rec.T -= offset
			}
			lastT, haveLast = rec.T, true
			if !q.put(srcEvent{rec: rec}, m.stop) {
				return
			}
			st.records.Add(1)
			continue
		}
		eof := err == io.EOF
		if !eof {
			st.failures.Add(1)
		}
		if !m.sup.enabled() || (eof && !m.sup.reopenOnEOF(i)) {
			q.put(srcEvent{err: err}, m.stop)
			return
		}
		// The source is down: close the dead generation, then reopen
		// with exponential backoff and jitter.
		if c, ok := src.(io.Closer); ok {
			_ = c.Close() // generation already dead; the read error is the one reported
		}
		st.down.Store(true)
		backoff := m.sup.backoff()
		for attempt := 1; ; attempt++ {
			if max := m.sup.maxAttempts(); max > 0 && attempt > max {
				st.permanent.Store(true)
				m.sup.notify(SourceDown{Source: i, Err: err, Permanent: true})
				q.put(srcEvent{err: fmt.Errorf("capture: source %d: giving up after %d attempts: %w", i, max, err)}, m.stop)
				return
			}
			wait := jitter(backoff, rng)
			m.sup.notify(SourceDown{Source: i, Err: err, Retry: wait})
			if !m.sleep(wait) {
				return // closed during backoff
			}
			if backoff *= 2; backoff > m.sup.maxBackoff() {
				backoff = m.sup.maxBackoff()
			}
			next, rerr := m.sup.Reopen(i)
			if rerr != nil {
				st.failures.Add(1)
				err = rerr
				continue
			}
			src = next
			st.setCur(src)
			st.reopens.Add(1)
			st.down.Store(false)
			first = true // rebase splices the new generation (see above)
			m.sup.notify(SourceUp{Source: i, Attempts: attempt})
			break
		}
	}
}

// head makes q's next record available at q.local[q.pos], retiring the
// source at its terminal event, or at Close once its published records
// are drained. Reports whether a record is there.
func (m *MultiStream) head(q *srcQueue) bool {
	for !q.done {
		if q.pending() {
			if q.local[q.pos].err != nil {
				m.retire(q, q.pop().err)
				return false
			}
			return true
		}
		select {
		case <-q.ready:
		case <-m.stop:
			if !q.pending() {
				q.done = true
			}
		}
	}
	return false
}

// Next returns the next merged record, or io.EOF when every source has
// ended (check Err for per-source failures — a failed source retires,
// it does not abort the merge).
func (m *MultiStream) Next() (Record, error) {
	if m.mode == MergeArrival {
		return m.nextArrival()
	}
	best, bestT := -1, int64(0)
	for i := range m.qs {
		q := &m.qs[i]
		if !m.head(q) {
			continue
		}
		if t := q.local[q.pos].rec.T; best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	if best < 0 {
		return Record{}, io.EOF
	}
	return m.qs[best].pop().rec, nil
}

// nextArrival serves the current source's batch until it is spent,
// then moves on to the next source, polling the queues round-robin one
// batch per turn — so a pump that keeps its queue non-empty cannot
// starve the others — and waiting on the shared ready channel when
// every queue is empty. After Close it drains what is already
// published, then ends.
func (m *MultiStream) nextArrival() (Record, error) {
	stopped := false
scan:
	for m.live > 0 {
		for range m.qs {
			q := &m.qs[m.rr]
			if !q.done && q.pending() {
				ev := q.pop()
				if q.pos == len(q.local) {
					m.nextSource() // batch spent: the next source's turn
				}
				if ev.err != nil {
					m.retire(q, ev.err)
					continue scan
				}
				return ev.rec, nil
			}
			m.nextSource()
		}
		if stopped {
			break
		}
		select {
		case <-m.ready:
		case <-m.stop:
			stopped = true // one more full scan, then end
		}
	}
	return Record{}, io.EOF
}

// nextSource advances the MergeArrival round-robin cursor.
func (m *MultiStream) nextSource() {
	if m.rr++; m.rr == len(m.qs) {
		m.rr = 0
	}
}

// Close stops the stream: decode goroutines are released (sources
// implementing io.Closer are closed, so even a pump blocked in a read
// exits) and Next drains to io.EOF. Safe to call from any goroutine,
// more than once.
func (m *MultiStream) Close() {
	m.stopped.Do(func() {
		close(m.stop)
		for _, st := range m.srcs {
			st.closeCur()
		}
	})
}

// Err returns the accumulated per-source decode errors, joined, or nil.
func (m *MultiStream) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return errors.Join(m.errs...)
}

// SourceStats snapshots each source's supervision counters. Safe from
// any goroutine.
func (m *MultiStream) SourceStats() []SourceStats {
	out := make([]SourceStats, len(m.srcs))
	for i, st := range m.srcs {
		out[i] = SourceStats{
			Records:      st.records.Load(),
			DecodeErrors: st.decodeErrors.Load(),
			Failures:     st.failures.Load(),
			Reopens:      st.reopens.Load(),
			Down:         st.down.Load(),
			Permanent:    st.permanent.Load(),
		}
	}
	return out
}

// WithCloser attaches a Closer to a RecordSource, so MultiStream.Close
// (and supervised reopens) can unblock a source wedged in a blocking
// read — a StreamReader over a FIFO, closed via the underlying file.
// The source's Skipped counter, if any, is preserved.
func WithCloser(src RecordSource, c io.Closer) RecordSource {
	return &closerSource{src: src, c: c}
}

type closerSource struct {
	src RecordSource
	c   io.Closer
}

func (s *closerSource) Next() (Record, error) { return s.src.Next() }
func (s *closerSource) Close() error          { return s.c.Close() }
func (s *closerSource) Skipped() uint64 {
	if sc, ok := s.src.(skipCounter); ok {
		return sc.Skipped()
	}
	return 0
}
