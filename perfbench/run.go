package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/cmdutil"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
)

// minPasses is the fewest replays a measurement makes, however long
// they take.
const minPasses = 3

// runner holds one benchmark run: the workload, its inputs and the
// serial reference replay that every measured replay is checked
// against.
type runner struct {
	w     *workload
	in    *inputs
	o     options
	epoch time.Time
	ref   *reference
}

// reference is the outcome of the serial replay of the input.
type reference struct {
	digest digest
	frames int
	// closeAt[k] is the index of the monitored record whose push closed
	// window k, or -1 when Close closed it.
	closeAt []int
	// events are every event of the replay, kept for the traced run.
	events []engine.Event
	pipe   *pipeline
}

// run loads the inputs, replays them serially for the reference, and
// makes the end-to-end or the traced measurement.
func run(w *workload, o options) (*result, error) {
	in, cached, err := loadInputs(w, o.seed)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, in: in, o: o, epoch: time.Now()}
	res := newResult(fmt.Sprintf("perfbench workload=%s seed=%d trace=%t seconds=%g GOMAXPROCS=%d",
		w.name, o.seed, o.trace, o.seconds, runtime.GOMAXPROCS(0)))
	genNote := "generated for this run, in a child process"
	if cached {
		genNote = "inputs cached; time the generating run took"
	}
	res.info("gen_s", in.GenSeconds, 1, genNote)
	res.info("input_mb", float64(in.size())/1e6, len(in.Pcaps), "pcap bytes plus checkpoint; n = captures")
	if err := r.replayReference(o.trace); err != nil {
		return nil, fmt.Errorf("serial reference replay: %w", err)
	}
	if o.trace {
		if err := r.traced(res); err != nil {
			return nil, err
		}
	} else {
		r.report(r.summarize(r.passes(o.budget(), nil)), res, true)
	}
	return res, res.complete(o.trace)
}

// replayReference replays the input once through the serial form of
// the workload's pipeline, recording the verdict digest and which
// record closed each window.
func (r *runner) replayReference(keepEvents bool) error {
	ref := &reference{digest: newDigest()}
	cur := -1
	sink := engine.SinkFunc(func(ev engine.Event) {
		if keepEvents {
			ref.events = append(ref.events, ev)
		}
		if v, ok := verdictOf(ev); ok {
			ref.digest.add(v)
		}
		if _, ok := ev.(engine.WindowClosed); ok {
			ref.closeAt = append(ref.closeAt, cur)
		}
	})
	p, err := r.w.setup(r.in, sink, true)
	if err != nil {
		return err
	}
	src := p.open()
	push := func(rec *capture.Record) {
		cur = ref.frames
		p.eng.Push(rec)
		ref.frames++
	}
	if p.pending != nil {
		push(p.pending)
	}
	for err == nil {
		var rec capture.Record
		if rec, err = src.Next(); err == nil {
			push(&rec)
		}
	}
	cur = -1
	p.eng.Close()
	if p.release != nil {
		p.release()
	}
	if err != io.EOF {
		return err
	}
	if p.trainer != nil {
		p.adoptTrainer()
	}
	if ref.digest.n == 0 {
		return fmt.Errorf("the replay produced no verdicts")
	}
	ref.pipe = p
	r.ref = ref
	return nil
}

// collector is one pass's verdict consumer. verdict runs on the
// consumer's goroutine — the pushing goroutine (serial engine), the
// merger (sharded engine) or the SSE reader (randomized-served) — one
// call at a time.
type collector struct {
	epoch time.Time
	// stamps[k] is when the push (or Close) that closed window k began,
	// in ns since epoch.
	stamps []atomic.Int64
	want   int
	done   chan struct{}
	got    atomic.Int64

	digest           digest
	lat              []float64 // µs from the window's close stamp to delivery
	matched, correct int
	last             int64 // when the latest verdict arrived, ns since epoch
	// first and lastOf are each window's first and last delivery, for
	// the traced run's window spans.
	first, lastOf []int64

	mu    sync.Mutex
	seen  []dot11.Addr // delivered senders, for the API client
	known map[dot11.Addr]bool
}

func newCollector(epoch time.Time, windows, want int) *collector {
	return &collector{
		epoch: epoch, stamps: make([]atomic.Int64, windows), want: want, done: make(chan struct{}),
		digest: newDigest(), lat: make([]float64, 0, want),
		first: make([]int64, windows), lastOf: make([]int64, windows),
		known: make(map[dot11.Addr]bool),
	}
}

func (c *collector) now() int64 { return int64(time.Since(c.epoch)) }

func (c *collector) verdict(v verdict) {
	t := c.now()
	c.digest.add(v)
	if w := v.window; w >= 0 && w < len(c.stamps) {
		c.lat = append(c.lat, float64(t-c.stamps[w].Load())/1e3)
		if c.first[w] == 0 {
			c.first[w] = t
		}
		c.lastOf[w] = t
	}
	if v.matched {
		c.matched++
		// The sender's ground-truth identity is its own address: the
		// simulated station's (per-site remapped on fleet-match), or the
		// canonical cluster address the clusterer derives from its probe
		// content on randomized-served.
		if v.best == v.addr {
			c.correct++
		}
	}
	c.last = t
	c.mu.Lock()
	if !c.known[v.addr] {
		c.known[v.addr] = true
		c.seen = append(c.seen, v.addr)
	}
	c.mu.Unlock()
	if int(c.got.Add(1)) == c.want {
		close(c.done)
	}
}

func (c *collector) sink() engine.Sink {
	return engine.SinkFunc(func(ev engine.Event) {
		if v, ok := verdictOf(ev); ok {
			c.verdict(v)
		}
	})
}

// pick returns the k-th delivered sender, round robin.
func (c *collector) pick(k int) (dot11.Addr, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seen) == 0 {
		return dot11.Addr{}, false
	}
	return c.seen[k%len(c.seen)], true
}

// wait blocks until every expected verdict has arrived, or d passes.
func (c *collector) wait(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.done:
		return nil
	case <-t.C:
		return fmt.Errorf("%d of %d verdicts arrived within %v", c.got.Load(), c.want, d)
	}
}

// passResult is one replay's measurements.
type passResult struct {
	setup      time.Duration
	frames     int
	wall       time.Duration // first monitored byte read to last verdict delivered
	col        *collector
	closeEnd   []int64 // when each window's closing push returned, ns since epoch
	mallocs    uint64
	allocBytes uint64
	skipped    uint64
	dropped    uint64 // frames the engine dropped
	sseDropped uint64 // feed frames the SSE subscriber lost
	api        []float64
	apiFailed  int
	err        error
}

// passes replays until budget is spent, and at least minPasses times.
func (r *runner) passes(budget time.Duration, t *tracer) []passResult {
	var out []passResult
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < budget {
		out = append(out, r.pass(t))
	}
	return out
}

// pass replays the input once: set-up, then the monitored phase from
// the first monitored pcap byte read to the last verdict delivered.
func (r *runner) pass(t *tracer) passResult {
	runtime.GC() // garbage of earlier passes is not this pass's cost
	col := newCollector(r.epoch, len(r.ref.closeAt), r.ref.digest.n)
	sink := col.sink()
	start := time.Now()
	// A served pass deploys its own server: the site exists before the
	// engine, whose sink it wraps, and the SSE subscriber consumes the
	// verdicts instead of the engine's sink.
	var env *servedEnv
	if r.w.served {
		var err error
		if env, err = startServed(col); err != nil {
			return passResult{err: err}
		}
		defer env.close()
		sink = env.site.Sink(nil)
	}
	if t != nil {
		sink = t.sink(sink)
	}
	p, err := r.w.setup(r.in, sink, false)
	if err != nil {
		return passResult{err: err}
	}
	var api *apiClient
	if env != nil {
		env.site.Attach(p.eng, p.trainer, nil, cmdutil.References{})
	}
	res := passResult{setup: time.Since(start), col: col}
	if env != nil {
		api = env.startAPI(col)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := col.now()
	res.frames, res.closeEnd, res.err = r.replay(p, col, t)
	if res.err == nil && env != nil {
		res.err = col.wait(feedTimeout)
	}
	res.wall = time.Duration(col.last - t0)
	runtime.ReadMemStats(&m1)
	if api != nil {
		res.api, res.apiFailed = api.finish()
	}
	if p.release != nil {
		p.release()
	}
	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.skipped = p.skipped()
	res.dropped = p.eng.Stats().DroppedFrames
	if env != nil {
		res.sseDropped = env.site.Feed().Stats().Dropped
	}
	return res
}

// replay pushes the monitored records — set-up's pending record, then
// the stream to its end — and closes the engine. It stamps each
// window's close time before the push that closes it (the last
// window's before Close). With a tracer it also times every Next and
// Push call.
func (r *runner) replay(p *pipeline, col *collector, t *tracer) (frames int, closeEnd []int64, err error) {
	closeAt := r.ref.closeAt
	closeEnd = make([]int64, len(closeAt))
	w := 0
	src := p.open()
	var rec capture.Record
	have := p.pending != nil
	if have {
		rec = *p.pending
	}
	for {
		if !have {
			if t != nil {
				start := time.Now()
				rec, err = src.Next()
				t.next.observe(time.Since(start))
			} else {
				rec, err = src.Next()
			}
			if err != nil {
				break
			}
		}
		have = false
		if r.o.delay > 0 && frames%delayBatch == 0 {
			busyWait(delayBatch * r.o.delay)
		}
		closing := w < len(closeAt) && closeAt[w] == frames
		if closing {
			col.stamps[w].Store(col.now())
		}
		switch {
		case t == nil:
			p.eng.Push(&rec)
		case closing:
			start := time.Now()
			p.eng.Push(&rec)
			t.closePush.observe(time.Since(start))
		default:
			start := time.Now()
			p.eng.Push(&rec)
			t.push.observe(time.Since(start))
		}
		if closing {
			closeEnd[w] = col.now()
			w++
		}
		frames++
	}
	if err == io.EOF {
		err = nil
	}
	if w < len(closeAt) {
		col.stamps[w].Store(col.now())
	}
	p.eng.Close()
	if w < len(closeAt) {
		closeEnd[w] = col.now()
	}
	return frames, closeEnd, err
}

// delayBatch is how many records' worth of --delay the record loop
// spends at once, so that the clock reads cost a fraction of a
// nanosecond per record.
const delayBatch = 64

// busyWait spends d on the clock: the sensitivity self-check's
// synthetic cost, paid in the benchmark's own record loop, never in
// library code. It reads the clock rather than running arithmetic, which
// the processor would overlap with the surrounding pipeline work.
func busyWait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// summary is the end-to-end outcome of a set of passes.
type summary struct {
	fps, setup          []float64
	lat                 [][]float64 // per pass
	api                 []float64
	verdicts            int
	attempted, failed   uint64
	sseDropped          uint64
	goodFrames          uint64
	mallocs, allocBytes uint64
	matched, correct    int
	mismatch            bool
	problems            []string
	last                passResult // the last correct pass
}

// summarize checks every pass against the serial reference and pools
// the measurements of the passes that agree with it.
func (r *runner) summarize(ps []passResult) summary {
	var s summary
	apiFailed := 0
	for i, p := range ps {
		s.attempted += uint64(p.frames)
		var problem string
		switch {
		case p.err != nil:
			problem = p.err.Error()
		case p.col.digest != r.ref.digest:
			problem = fmt.Sprintf("verdict digest %016x over %d verdicts differs from the serial reference's %016x over %d",
				p.col.digest.sum, p.col.digest.n, r.ref.digest.sum, r.ref.digest.n)
		case p.frames != r.ref.frames:
			problem = fmt.Sprintf("%d frames monitored, the serial reference monitored %d", p.frames, r.ref.frames)
		}
		if problem != "" {
			s.problems = append(s.problems, fmt.Sprintf("pass %d: %s", i, problem))
			s.mismatch = true
			s.failed += uint64(p.frames)
			continue
		}
		s.fps = append(s.fps, float64(p.frames)/p.wall.Seconds())
		s.setup = append(s.setup, p.setup.Seconds())
		s.lat = append(s.lat, p.col.lat)
		s.api = append(s.api, p.api...)
		apiFailed += p.apiFailed
		s.verdicts += p.col.digest.n
		s.goodFrames += uint64(p.frames)
		s.mallocs += p.mallocs
		s.allocBytes += p.allocBytes
		s.failed += p.skipped + p.dropped + p.sseDropped
		s.sseDropped += p.sseDropped
		s.matched += p.col.matched
		s.correct += p.col.correct
		s.last = p
	}
	if apiFailed > 0 {
		s.problems = append(s.problems, fmt.Sprintf("%d API queries failed", apiFailed))
	}
	return s
}

// report adds the end-to-end metrics of s to res: to the JSON line for
// an end-to-end run, to the report for the traced run.
func (r *runner) report(s summary, res *result, asMetrics bool) {
	add := res.info
	if asMetrics {
		add = res.add
		res.attempted += s.attempted
		res.failed += s.failed
	}
	for _, p := range s.problems {
		res.fail("%s", p)
	}
	passes := len(s.fps)
	add("frames_per_s", bestFPS(s.fps), passes, "best pass of monitored frames / (first pcap byte read -> last verdict delivered)")
	if passes > 0 {
		q1, _ := percentile(s.fps, 0.25)
		res.note("frames_per_s over passes: min %.4g, lower quartile %.4g, median %.4g, best %.4g",
			s.fps[0], q1, median(s.fps), s.fps[passes-1])
	}
	for _, m := range []struct {
		name string
		q    float64
	}{{"verdict_latency_p50_us", 0.50}, {"verdict_latency_p99_us", 0.99}} {
		v, reported, groups := groupedPercentile(s.lat, m.q)
		what := fmt.Sprintf("window-closing push -> verdict at the consumer; median over %d groups of consecutive passes with >= %d verdicts", groups, latencyGroup)
		add(m.name, v, s.verdicts, quantileNote(m.q, reported, what))
	}
	add("setup_s", median(s.setup), passes, "median over passes of reference acquisition + pipeline construction")
	add("allocs_per_frame", ratio(float64(s.mallocs), float64(s.goodFrames)), int(s.goodFrames), "heap allocations over the monitored phases / frames")
	add("alloc_bytes_per_frame", ratio(float64(s.allocBytes), float64(s.goodFrames)), int(s.goodFrames), "heap bytes over the monitored phases / frames")
	add("peak_rss_mb", peakRSSMB(), 1, "peak resident memory of the process")
	res.info("ident_frac", ratio(float64(s.correct), float64(s.matched)), s.matched, "matched verdicts naming the sender's ground-truth identity")
	failedFrac := ratio(float64(s.failed), float64(s.attempted))
	if s.mismatch {
		failedFrac = 1
	}
	res.info("failed_frac", failedFrac, int(s.attempted), "(skipped + dropped frames + SSE frames lost) / frames; 1 on a digest mismatch")
	if r.w.served {
		a50, qa50 := percentile(s.api, 0.50)
		a99, qa99 := percentile(s.api, 0.99)
		res.info("api_query_p50_us", a50, len(s.api), quantileNote(0.50, qa50, "GET .../senders/{addr} round trip, closed loop with 1 ms think time"))
		res.info("api_query_p99_us", a99, len(s.api), quantileNote(0.99, qa99, "GET .../senders/{addr} round trip, closed loop with 1 ms think time"))
	}
	res.info("passes", float64(passes), passes, "replays that matched the serial reference")
	res.info("verdicts_per_pass", ratio(float64(s.verdicts), float64(passes)), s.verdicts, "")
}

// bestFPS returns the best pass's frames per second. The host's speed
// swings by up to 1.7x in phases of a few seconds as its other tenants
// come and go; a median over passes follows their share of the run,
// while the best pass, the one run in an uncontended phase, repeats
// from run to run. A regression slows every pass, the best one too.
func bestFPS(fps []float64) float64 {
	if len(fps) == 0 {
		return 0
	}
	return slices.Max(fps)
}

// latencyGroup is the fewest verdicts a group of passes pools for its
// latency percentiles: enough for 10 samples beyond p99.
const latencyGroup = 1000

// groupedPercentile returns the median, over groups of consecutive
// passes each pooling at least latencyGroup samples, of each group's
// q-quantile, with the quantile the groups could report (see percentile)
// and the group count. Grouping keeps a stretch of machine contention
// that slows a few passes from setting the tail of the whole run. Too
// few samples for two groups make one group of everything.
func groupedPercentile(passes [][]float64, q float64) (v, reported float64, groups int) {
	var vals []float64
	var group []float64
	reported = q
	for i, p := range passes {
		group = append(group, p...)
		rest := 0
		for _, later := range passes[i+1:] {
			rest += len(later)
		}
		if len(group) < latencyGroup || (rest > 0 && rest < latencyGroup) {
			if i < len(passes)-1 {
				continue
			}
		}
		g, r := percentile(group, q)
		vals = append(vals, g)
		reported = min(reported, r)
		group = nil
	}
	return median(vals), reported, len(vals)
}

// quantileNote describes a percentile, saying so when too few samples
// lay beyond q and a lower quantile was reported.
func quantileNote(q, reported float64, what string) string {
	if reported == q {
		return what
	}
	return fmt.Sprintf("%s; too few samples for p%g, reported p%.3g", what, q*100, reported*100)
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
