package engine

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
)

// Backpressure selects what the sharded engine does when a shard queue
// is full.
type Backpressure uint8

const (
	// Block makes Push wait for queue space — lossless, end-to-end flow
	// control: a slow sink ultimately slows the producer, exactly like
	// the serial Engine's synchronous delivery.
	Block Backpressure = iota
	// Drop makes Push discard observations instead of waiting, counting
	// them in Stats.DroppedFrames — bounded ingest latency under load
	// bursts for live feeds that must not stall the radio. Window
	// clocking is never dropped (dropping a close control would corrupt
	// the shard merge), so windows still close on the right boundaries;
	// dropped observations are simply missing from that window's
	// signatures (output is then no longer equivalent to the serial
	// engine). The lossless control path means a sink that stops
	// returning altogether still stalls Push at the next window
	// boundary — Drop bounds loss to data, it does not make a
	// permanently wedged sink survivable; a sink with its own overflow
	// policy (e.g. draining a ChannelSink) is the tool for that.
	Drop
)

// ShardedOptions parameterises a Sharded engine.
type ShardedOptions struct {
	// Window, Threshold and Sink mean exactly what they do in Options.
	Window    time.Duration
	Threshold float64
	Sink      Sink
	// Shards is the number of independent partitions records are hashed
	// into by sender address; 0 selects GOMAXPROCS. Each shard owns its
	// accumulator and queue and matches its own candidates, so ingestion
	// and matching scale across cores. Shard count changes wall-clock
	// behaviour only: the merged event stream is identical for every
	// value.
	Shards int
	// QueueLen is the per-shard queue depth in observations (rounded up
	// to whole batches); 0 selects 8192. Deeper queues absorb larger
	// bursts before the Backpressure policy engages.
	QueueLen int
	// Backpressure picks the full-queue policy: Block (default,
	// lossless) or Drop (bounded latency, counted loss).
	Backpressure Backpressure
	// TopK bounds verdict events to the k best references exactly like
	// Options.TopK: 0 selects DefaultTopK, FullVector carries the full
	// vectors, and verdicts and Best are bit-identical either way, at
	// every shard count.
	TopK int
	// Limits bounds each shard's sender state (see core.SenderLimits).
	// The cap applies per shard, so total signature memory is
	// O(Shards × MaxSenders); eviction is deterministic per shard but —
	// unlike everything else about shard count — which senders are
	// evicted depends on the partitioning.
	Limits core.SenderLimits
	// Cluster merges randomized-MAC senders into logical devices by
	// probe-request content, exactly like Options.Cluster. The router
	// resolves every sender before shard hashing, so all of a device's
	// rotated addresses land on — and accumulate in — one shard under
	// the canonical device address. Driven only from the Push
	// goroutine; nil disables.
	Cluster *core.Clusterer
	// Trainer enables online enrollment, exactly like Options.Trainer
	// (the engine must then be created with a nil db). Enrollment needs
	// strict window ordering — window k's promotions must be installed
	// before window k+1 is matched — and per-shard matching runs ahead
	// of the merger, so with a Trainer attached the shards skip
	// matching and the merger matches each merged window against the
	// freshly swapped database instead (fanning out across workers).
	// The event stream stays identical to the serial engine's with the
	// same Trainer settings, at every shard count.
	Trainer *Trainer
	// HealthSink receives supervision events (ComponentPanicked,
	// ShardStalled, ShardResumed). Unlike Sink it is called from
	// internal goroutines — shards, the merger, the watchdog — possibly
	// concurrently, and never interleaved with the main event stream;
	// it must not call back into the engine. nil discards the events
	// (Health still counts everything).
	HealthSink Sink
	// Watchdog enables the stall detector at this sampling interval: a
	// shard with queued batches that processes nothing across an
	// interval is reported ShardStalled (and ShardResumed when it moves
	// again). 0 disables.
	Watchdog time.Duration
	// Hooks are fault-injection/test points (see Hooks); nil — the
	// production value — costs one branch per batch.
	Hooks Hooks
}

// shardBatch is the router→shard transfer granularity: big enough to
// amortise queue synchronisation to well under a nanosecond per frame,
// small enough that a window close never waits long for stragglers.
const shardBatch = 256

// shardObs is one attributed observation, routed to the sender's shard.
// The router has already applied the attribution rules and computed
// every member's parameter value against the global inter-arrival
// context, so sharding cannot change any observation's value. Member
// 0's value travels inline in v, the rest in the batch's slab
// (shardMsg.more); valid is their core.MemberValues mask.
type shardObs struct {
	addr  dot11.Addr
	class dot11.Class
	valid uint8
	t     int64
	v     float64
}

// shardMsg is the SPSC queue element: a batch of observations, plus an
// optional close-window control processed after them. The close carries
// the router's core.WindowMeta — the one global window clock — so
// window indices, bounds and frame counts stay consistent across
// shards. Messages are recycled through a per-shard free list, so the
// steady state moves no memory to the garbage collector.
type shardMsg struct {
	n        int
	closeWin bool
	meta     core.WindowMeta
	entries  [shardBatch]shardObs
	// more is the batch's value slab for the members after the first,
	// sized by member count at construction: entry i's members 1..m-1
	// are more[i*(m-1) : (i+1)*(m-1)]. A single parameter needs none,
	// so its batch entry is as compact as one value allows.
	more []float64
}

// shard is one partition: an SPSC queue pair (ch carries filled
// messages to the shard goroutine, free returns drained ones) and the
// state owned exclusively by that goroutine.
type shard struct {
	ch    chan *shardMsg
	free  chan *shardMsg
	cur   *shardMsg // batch being filled by the router
	table *core.SenderTable
	// processed counts drained messages — the watchdog's progress
	// signal. Incremented once per batch, never per frame.
	processed atomic.Uint64
}

// shardSegment is one shard's slice of a closed window, sent to the
// merger: candidates and dropped senders (each sorted by address) plus
// the shard-local match rows (fused, plus per-member vectors under
// FullVector). The segment ships as soon as the shard's table is
// drained; the shard then writes rows[i] (and perParam[i]) one
// candidate at a time and marks each in prog, which the merger waits
// on before reading a row. Without matching (a trainer defers it to the
// merger) rows, perParam and prog stay nil.
type shardSegment struct {
	meta     core.WindowMeta
	res      core.WindowResult
	rows     [][]core.Score
	perParam [][][]core.Score
	prog     *core.Progress
	taken    chan struct{} // the merger's receipt, for a matching shard
}

// Sharded is the concurrent form of Engine: records are hash-
// partitioned by sender address across N independent shards, each
// owning its accumulator and matching its own candidates, fed through
// per-shard SPSC batch queues; a merger joins the per-shard results
// back into one deterministic event stream.
//
// The contract is the serial Engine's: Push, PushTrace, Flush and
// Close from a single goroutine; SetDB, DB and Stats from any
// goroutine. Unlike Engine, events are delivered asynchronously on an
// internal goroutine — Flush and Close block until every event for the
// flushed windows has been handed to the sink, and the sink must not
// call back into Push.
//
// Because the router computes each observation's member values against
// the global inter-arrival context and broadcasts one global window
// clock, the merged event stream is identical to the serial Engine's
// over the same records — same events, same order — for every shard
// count, as long as no observations are dropped (Block policy, no
// SenderLimits). Like Engine it runs one path, a single parameter being
// an ensemble of one (NewSharded), shaped only at the API edge.
//
// Verdicts stream as on the serial Engine: each shard ships its slice
// of a closed window before matching it, and the merger delivers each
// verdict, in merged order, as soon as its shard has matched that row.
type Sharded struct {
	refSet
	opts ShardedOptions

	shards []*shard
	segCh  chan shardSegment
	// mergerIdle is set while the merger is blocked waiting for a
	// segment.
	mergerIdle atomic.Bool

	// deferMatch moves window matching from the shards to the merger
	// (set when a Trainer is attached — see ShardedOptions.Trainer).
	deferMatch bool

	// Router state, owned by the pushing goroutine. The clock is the
	// same implementation WindowAccumulator runs on, so serial and
	// sharded windowing cannot drift apart. vals holds one record's
	// member values; it lives in the engine, beside the other state the
	// router writes per frame, because a small heap buffer written per
	// frame can share a cache line with signature state a shard writes
	// (measured at up to 2.3× the push cost).
	closed bool
	clock  core.WindowClock
	closes uint64 // window closes broadcast so far
	vals   [core.MaxEnsembleMembers]float64

	startNs       atomic.Int64
	frames        atomic.Uint64
	droppedFrames atomic.Uint64

	// Window-scoped counters: one consistent snapshot group (see
	// Stats), updated by the merger under mu. emitted drives the
	// Flush/Close rendezvous via cond.
	mu      sync.Mutex
	cond    *sync.Cond
	emitted uint64
	windows uint64
	matched uint64
	unknown uint64
	dropped uint64
	evicted uint64

	shardWG  sync.WaitGroup
	mergerWG sync.WaitGroup

	health    healthState
	watchStop chan struct{}
	watchWG   sync.WaitGroup
}

// NewSharded creates a sharded engine extracting signatures under cfg
// and matching each closed window against db (nil runs extraction-only
// until SetDB installs one). A non-nil db must share cfg's parameter
// and bin shape.
func NewSharded(cfg core.Config, db *core.CompiledDB, opts ShardedOptions) (*Sharded, error) {
	return newSharded([]core.Config{cfg}, true, asEnsemble(db), opts)
}

// NewShardedEnsemble creates a sharded multi-parameter engine: the
// router computes every member's parameter value against the global
// inter-arrival context (so sharding cannot change any value), shards
// accumulate one signature per member per sender, and each closed
// window's candidates are fuse-matched against edb (nil runs
// extraction-only until SetEnsembleDB installs one). The merged event
// stream is identical to the serial ensemble engine's at every shard
// count, exactly like the single-parameter engines.
func NewShardedEnsemble(cfgs []core.Config, edb *core.CompiledEnsemble, opts ShardedOptions) (*Sharded, error) {
	return newSharded(cfgs, false, edb, opts)
}

// newSharded builds the one sharded engine behind NewSharded and
// NewShardedEnsemble: router, shards, queues, references, goroutines.
func newSharded(cfgs []core.Config, single bool, refs *core.CompiledEnsemble, opts ShardedOptions) (*Sharded, error) {
	if opts.Window == 0 {
		opts.Window = core.DefaultWindow
	}
	if opts.TopK == 0 {
		opts.TopK = DefaultTopK
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 8192
	}
	s := &Sharded{
		opts:  opts,
		clock: core.NewWindowClock(opts.Window),
	}
	s.single = single
	s.cond = sync.NewCond(&s.mu)

	batches := (opts.QueueLen + shardBatch - 1) / shardBatch
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		table, err := core.NewEnsembleSenderTable(cfgs, opts.Limits)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			ch:    make(chan *shardMsg, batches),
			free:  make(chan *shardMsg, batches+2),
			table: table,
		}
		// One message per queue slot, plus one for the router to fill
		// and one for the shard goroutine to drain.
		for j := 0; j < batches+2; j++ {
			msg := &shardMsg{}
			if len(cfgs) > 1 {
				msg.more = make([]float64, shardBatch*(len(cfgs)-1))
			}
			sh.free <- msg
		}
		s.shards[i] = sh
	}
	s.cfgs = s.shards[0].table.Configs() // defaults materialised
	refs, err := opts.Trainer.attach(s, s.cfgs, refs)
	if err != nil {
		return nil, err
	}
	s.deferMatch = opts.Trainer != nil
	if err := s.install(refs); err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// start launches the shard and merger goroutines once the reference
// set is installed.
func (s *Sharded) start() {
	s.segCh = make(chan shardSegment, len(s.shards)*2)
	for i, sh := range s.shards {
		s.shardWG.Add(1)
		go s.runShard(i, sh)
	}
	go func() {
		s.shardWG.Wait()
		close(s.segCh)
	}()
	s.mergerWG.Add(1)
	go s.runMerger()
	if s.opts.Watchdog > 0 {
		s.watchStop = make(chan struct{})
		s.watchWG.Add(1)
		go s.runWatchdog(s.opts.Watchdog)
	}
}

// shardOf hashes a sender address to its shard: a fixed multiplicative
// hash over the 48 address bits, so partitioning is deterministic
// across runs and processes.
func (s *Sharded) shardOf(addr dot11.Addr) int {
	x := uint64(addr[0])<<40 | uint64(addr[1])<<32 | uint64(addr[2])<<24 |
		uint64(addr[3])<<16 | uint64(addr[4])<<8 | uint64(addr[5])
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	return int(x % uint64(len(s.shards)))
}

// ShardOf reports which shard owns a sender address — the partitioning
// is deterministic across runs and processes, so an operator can
// attribute a ShardStalled or shard ComponentPanicked event to the
// senders it affects (and chaos tests can place faults precisely).
func (s *Sharded) ShardOf(addr dot11.Addr) int { return s.shardOf(addr) }

// Push ingests one record; the record is not retained. The router
// applies the global window clock and attribution rules, computes the
// member values against the stream-wide inter-arrival context, and
// forwards the observation to its sender's shard. Push panics after
// Close.
//
//fp:hotpath test=TestShardedPushZeroAllocs
func (s *Sharded) Push(rec *capture.Record) {
	if s.closed {
		panic("engine: Push after Close")
	}
	if s.frames.Add(1) == 1 {
		s.startNs.Store(time.Now().UnixNano()) //fp:wallclock throughput-stats epoch, read once on the first frame; no output depends on it
	}
	if closed, meta := s.clock.Advance(rec.T); closed {
		s.broadcastClose(meta)
	}
	// The sender is resolved before any value is computed, exactly as
	// the serial accumulator does: a probe request binds its address
	// even when no parameter value is defined for it. Every member's
	// value is then computed here, against the global inter-arrival
	// context — sharding cannot change a value.
	if !rec.Sender.IsZero() {
		addr := s.resolveSender(rec)
		vals := s.vals[:len(s.cfgs)]
		var valid uint8
		if cfg := &s.cfgs[0]; len(vals) == 1 {
			// One member's value is computed inline, as the serial
			// accumulator does: the MemberValues call alone cost ~13% on
			// BenchmarkShardedPush's 4-shard, 64-sender cell.
			if rec.FCSOK || cfg.KeepBadFCS {
				var ok bool
				if vals[0], ok = cfg.Param.Value(rec, s.clock.PrevT()); ok {
					valid = 1
				}
			}
		} else {
			valid = core.MemberValues(s.cfgs, rec, s.clock.PrevT(), vals)
		}
		if valid != 0 {
			s.route(addr, rec.Class, valid, rec.T, vals)
		}
	}
	s.clock.Mark(rec.T)
}

// resolveSender routes attribution through the MAC-randomization
// clusterer when one is attached: the canonical device address — not
// the raw (possibly rotated) sender — is what gets shard-hashed, so a
// device's whole observation history accumulates in one shard. Runs on
// the router goroutine, which is the clusterer's single owner.
func (s *Sharded) resolveSender(rec *capture.Record) dot11.Addr {
	if s.opts.Cluster == nil {
		return rec.Sender
	}
	return s.opts.Cluster.Resolve(rec)
}

// PushTrace replays a materialised trace through the push path.
func (s *Sharded) PushTrace(tr *capture.Trace) {
	for i := range tr.Records {
		s.Push(&tr.Records[i])
	}
}

// slot returns the shard's current batch with space for one more
// observation, applying the Backpressure policy: under Drop a full
// queue costs only the observations that arrive while it stays full —
// a filled batch is retained and retried on the next call, never
// discarded wholesale — and Push never stalls. A nil return means the
// observation was dropped (and counted).
func (s *Sharded) slot(sh *shard) *shardMsg {
	cur := sh.cur
	if cur != nil && cur.n == shardBatch {
		// A full batch is waiting for queue space (Drop policy only).
		select {
		case sh.ch <- cur:
			cur = nil
			sh.cur = nil
		default:
			s.droppedFrames.Add(1) // queue still full: lose this observation only
			return nil
		}
	}
	if cur == nil {
		if s.opts.Backpressure == Drop {
			select {
			case cur = <-sh.free:
			default:
				s.droppedFrames.Add(1)
				return nil
			}
		} else {
			cur = <-sh.free
		}
		sh.cur = cur
	}
	return cur
}

// commit accounts one appended observation, sending the batch when
// full (per the Backpressure policy).
func (s *Sharded) commit(sh *shard, cur *shardMsg) {
	cur.n++
	if cur.n == shardBatch {
		if s.opts.Backpressure == Drop {
			select {
			case sh.ch <- cur:
				sh.cur = nil
			default:
				// Queue full: keep the batch current and retry in slot.
			}
			return
		}
		sh.ch <- cur
		sh.cur = nil
	}
}

// route appends one observation — its member values under the valid
// mask — to its shard's current batch.
func (s *Sharded) route(addr dot11.Addr, class dot11.Class, valid uint8, t int64, vals []float64) {
	sh := s.shards[s.shardOf(addr)]
	cur := s.slot(sh)
	if cur == nil {
		return
	}
	cur.entries[cur.n] = shardObs{addr: addr, class: class, valid: valid, t: t, v: vals[0]}
	more := cur.more[cur.n*(len(vals)-1):]
	for m, v := range vals[1:] {
		more[m] = v
	}
	s.commit(sh, cur)
}

// broadcastClose flushes every shard's partial batch and appends the
// close-window control carrying the global window metadata. Controls
// are never dropped — window clocking survives the Drop policy — and
// per-shard FIFO order guarantees each shard sees all of a window's
// observations before its close.
//
//fp:coldpath one control broadcast per closed window
func (s *Sharded) broadcastClose(meta core.WindowMeta) {
	for _, sh := range s.shards {
		msg := sh.cur
		sh.cur = nil
		if msg == nil {
			msg = <-sh.free
		}
		msg.closeWin = true
		msg.meta = meta
		sh.ch <- msg
	}
	s.closes++
}

// Flush closes the currently open detection window early and blocks
// until its events (and those of every earlier window) have been
// delivered to the sink. The next pushed record opens a fresh window on
// the same grid.
func (s *Sharded) Flush() {
	if closed, meta := s.clock.CloseOpen(); closed {
		s.broadcastClose(meta)
	}
	target := s.closes
	s.mu.Lock()
	for s.emitted < target {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close flushes the open window, waits for every event to be delivered,
// and stops the shard and merger goroutines; further pushes panic.
// Close is idempotent.
func (s *Sharded) Close() {
	if s.closed {
		return
	}
	s.Flush()
	s.closed = true
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.shardWG.Wait()
	s.mergerWG.Wait()
	if s.watchStop != nil {
		close(s.watchStop)
		s.watchWG.Wait()
		// Every queue is drained, so no shard can be stalled — whatever
		// the watchdog's last sample under load said.
		for i := range s.shards {
			if s.health.setStalled(i, false) {
				if hs := s.opts.HealthSink; hs != nil {
					hs.HandleEvent(ShardResumed{Shard: i})
				}
			}
		}
	}
}

// runWatchdog samples each shard's progress counter every interval: a
// shard with queued batches that drained none since the last sample is
// stalled — wedged on a slow sink, a livelocked table, an injected
// fault — and is reported once per stall edge (ShardStalled, then
// ShardResumed when it moves again). Reads are two atomic loads per
// shard per tick; the push path is never touched.
func (s *Sharded) runWatchdog(interval time.Duration) {
	defer s.watchWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	last := make([]uint64, len(s.shards))
	ticks := make([]int, len(s.shards))
	for {
		select {
		case <-s.watchStop:
			return
		case <-tick.C:
		}
		for i, sh := range s.shards {
			cur := sh.processed.Load()
			queued := len(sh.ch)
			if cur == last[i] && queued > 0 {
				ticks[i]++
				if s.health.setStalled(i, true) {
					if hs := s.opts.HealthSink; hs != nil {
						hs.HandleEvent(ShardStalled{Shard: i, Queued: queued, For: time.Duration(ticks[i]) * interval})
					}
				}
			} else {
				ticks[i] = 0
				if s.health.setStalled(i, false) {
					if hs := s.opts.HealthSink; hs != nil {
						hs.HandleEvent(ShardResumed{Shard: i})
					}
				}
			}
			last[i] = cur
		}
	}
}

// Health snapshots the engine's supervision state: recovered panics,
// stalled shards, and per-shard queue depths. Safe from any goroutine.
func (s *Sharded) Health() Health {
	h := s.health.snapshot()
	h.QueueDepths = make([]int, len(s.shards))
	for i, sh := range s.shards {
		h.QueueDepths[i] = len(sh.ch)
	}
	return h
}

// runShard is one shard goroutine: it drains the queue, accumulates
// observations into the shard's sender table, and on each close control
// drains the table, ships the segment to the merger and matches the
// shard's candidates into it.
func (s *Sharded) runShard(id int, sh *shard) {
	defer s.shardWG.Done()
	for msg := range sh.ch {
		s.shardProcess(id, sh, msg)
		sh.processed.Add(1)
		msg.n = 0
		msg.closeWin = false
		sh.free <- msg
	}
}

// shardProcess handles one queued message under panic supervision: a
// panic — from the batch hook, the sender table, or matching — loses
// that message's observations (and, on a close control, the shard's
// slice of the window not yet handed to the merger: all of it before
// the segment ships, the unmatched rest of its candidates after) but
// never the shard goroutine, and never the window protocol: the merger
// still receives a segment for every (shard, window) pair, so windows
// keep completing and Flush/Close keep returning. The loss is counted
// in Health as a shard panic.
//
//fp:hotpath test=TestShardedPushZeroAllocs
func (s *Sharded) shardProcess(id int, sh *shard, msg *shardMsg) {
	sent := false
	defer func() {
		if r := recover(); r != nil {
			s.health.recordPanic(s.opts.HealthSink, "shard", id, r)
			if msg.closeWin && !sent {
				// Ship the close control's segment even though its content
				// was lost: an empty segment keeps the merge complete.
				seg := shardSegment{meta: msg.meta}
				seg.res.Index = msg.meta.Index
				seg.res.Start, seg.res.End = msg.meta.Start, msg.meta.End
				seg.res.Frames = msg.meta.Frames
				s.segCh <- seg
			}
		}
	}()
	if h := s.opts.Hooks.ShardBatch; h != nil {
		h(id, msg.n)
	}
	nm, more := len(s.cfgs)-1, msg.more
	for i := range msg.entries[:msg.n] {
		o := &msg.entries[i]
		sh.table.ObserveN(o.addr, o.class, o.v, more[:nm], o.valid, o.t)
		more = more[nm:]
	}
	if msg.closeWin {
		s.shardClose(sh, msg, &sent)
	}
}

// shardClose drains the shard's slice of a closing window and ships the
// segment, then — unless matching is deferred to the merger — matches
// its candidates in order, publishing each row to the merger as it is
// written. *sent flips just before the send so shardProcess's recovery
// never double-ships a segment; a panic while matching ends the
// segment's progress, so the merger emits the rows already matched and
// skips the rest instead of waiting for them.
//
//fp:coldpath runs once per (shard, window) close control; drain and match amortise across the window's frames
func (s *Sharded) shardClose(sh *shard, msg *shardMsg, sent *bool) {
	seg := shardSegment{meta: msg.meta}
	seg.res.Index = msg.meta.Index
	seg.res.Start, seg.res.End = msg.meta.Start, msg.meta.End
	seg.res.Frames = msg.meta.Frames
	sh.table.Drain(&seg.res)
	// With a trainer attached matching is deferred to the merger,
	// so window k's enrollment swap is installed before window
	// k+1's candidates are matched (see ShardedOptions.Trainer).
	if s.deferMatch {
		*sent = true
		s.segCh <- seg
		return
	}
	n := len(seg.res.Multi)
	rows, prog := make([][]core.Score, n), core.NewProgress(n)
	seg.rows, seg.prog = rows, prog
	defer prog.End()
	var perParam [][][]core.Score
	if s.opts.TopK <= 0 {
		perParam = make([][][]core.Score, n)
		seg.perParam = perParam
	}
	seg.taken = make(chan struct{}, 1)
	*sent = true
	s.segCh <- seg
	if s.mergerIdle.Load() {
		// The send woke the idle merger onto this processor, where it
		// would wait for the match below to run out its time slice: let
		// it take the segment first (see core.Progress.Mark).
		<-seg.taken
	}
	streamRows(s.refs.Load(), s.opts.TopK, 1, seg.res.Multi, func(i int, fused []core.Score, pp [][]core.Score) {
		rows[i] = fused
		if perParam != nil {
			perParam[i] = pp
		}
		prog.Mark(i)
	})
}

// runMerger joins shard segments back into whole windows. Every shard
// contributes exactly one segment per close, and each shard emits its
// windows in close order through one FIFO channel, so the final segment
// of window k always arrives before the final segment of window k+1 —
// windows complete, and are emitted, in index order. A segment arrives
// before its rows are matched; emitWindow waits for each row in turn,
// so a window's verdicts are delivered while its shards still match.
func (s *Sharded) runMerger() {
	defer s.mergerWG.Done()
	n := len(s.shards)
	pending := make(map[int][]shardSegment)
	for {
		s.mergerIdle.Store(true)
		seg, ok := <-s.segCh
		s.mergerIdle.Store(false)
		if !ok {
			return
		}
		if seg.taken != nil {
			seg.taken <- struct{}{}
		}
		idx := seg.meta.Index
		pending[idx] = append(pending[idx], seg)
		if len(pending[idx]) == n {
			segs := pending[idx]
			delete(pending, idx)
			s.emitWindowSafe(segs)
		}
	}
}

// emitWindowSafe runs one window's merge-and-emit under panic
// supervision. Whatever happens inside — a panicking sink, a merger
// hook fault, a trainer fault — the window is always accounted as
// emitted and cond is always broadcast, so Flush and Close can never
// deadlock on a lost window; the loss is counted in Health instead.
func (s *Sharded) emitWindowSafe(segs []shardSegment) {
	var c windowCounts
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.health.recordPanic(s.opts.HealthSink, "merger", -1, r)
			}
		}()
		if h := s.opts.Hooks.MergerWindow; h != nil {
			h(segs[0].meta.Index)
		}
		c = s.emitWindow(segs)
	}()
	s.mu.Lock()
	s.windows++
	s.matched += uint64(c.matched)
	s.unknown += uint64(c.unknown)
	s.dropped += uint64(c.dropped)
	s.evicted += uint64(c.evicted)
	s.emitted++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// windowCounts is emitWindow's contribution to the snapshot counters.
type windowCounts struct {
	matched, unknown, dropped, evicted int
}

// addrLess orders candidates and drops across shard segments.
func addrLess(a, b [6]byte) bool { return bytes.Compare(a[:], b[:]) < 0 }

// addrCmp is addrLess's three-way form, for slices.SortFunc (which,
// unlike sort.Slice, sorts without boxing through sort.Interface).
func addrCmp(a, b [6]byte) int { return bytes.Compare(a[:], b[:]) }

// mergeByAddr walks per-segment sorted slices in one global ascending
// address order: n(k) is segment k's length, addr(k, i) its i-th
// address, and emit is called once per element in merged order. Shard
// address sets are disjoint and each segment is already sorted, so the
// N-way head merge reproduces the serial engine's per-window order
// exactly.
func mergeByAddr(segs int, n func(int) int, addr func(k, i int) [6]byte, emit func(k, i int)) {
	pos := make([]int, segs)
	for {
		best := -1
		for k := 0; k < segs; k++ {
			if pos[k] >= n(k) {
				continue
			}
			if best < 0 || addrLess(addr(k, pos[k]), addr(best, pos[best])) {
				best = k
			}
		}
		if best < 0 {
			return
		}
		emit(best, pos[best])
		pos[best]++
	}
}

// emitWindow merges one window's shard segments into the serial
// engine's event order — verdicts ascending by address, each delivered
// once its shard has matched it, then drops ascending by address, then
// the WindowClosed summary — and returns the window's counter
// contributions (accounted by emitWindowSafe).
func (s *Sharded) emitWindow(segs []shardSegment) windowCounts {
	meta := segs[0].meta
	sink := s.opts.Sink

	matchedN, unknownN, candsN := 0, 0, 0
	// Both cases run every candidate through the same verdict
	// accounting, so a change to it cannot drift the trainer-mode stream
	// from the normal one.
	verdict := func(c *core.MultiCandidate, fused []core.Score, perParam [][]core.Score) {
		candsN++
		if emitVerdict(sink, s.opts.Threshold, s.single, c, fused, perParam) {
			matchedN++
		} else {
			unknownN++
		}
	}
	cands := func(k int) []core.MultiCandidate { return segs[k].res.Multi }
	var merged []core.MultiCandidate // the merged window, for the trainer
	if s.deferMatch {
		// Trainer mode: the shards shipped unmatched candidates. Merge
		// them into the serial engine's ascending-address window order,
		// then match the whole window here — after any swap the previous
		// window's enrollment installed — streaming the verdicts across
		// workers exactly like the serial engine's window matching.
		total := 0
		for k := range segs {
			total += len(cands(k))
		}
		merged = make([]core.MultiCandidate, 0, total)
		mergeByAddr(len(segs),
			func(k int) int { return len(cands(k)) },
			func(k, i int) [6]byte { return cands(k)[i].Addr },
			func(k, i int) { merged = append(merged, cands(k)[i]) })
		streamRows(s.refs.Load(), s.opts.TopK, 0, merged, func(i int, fused []core.Score, perParam [][]core.Score) {
			verdict(&merged[i], fused, perParam)
		})
	} else {
		// Each entry waits for its shard to match its row; a row the
		// shard faulted before matching is lost with the rest of its
		// slice.
		mergeByAddr(len(segs),
			func(k int) int { return len(cands(k)) },
			func(k, i int) [6]byte { return cands(k)[i].Addr },
			func(k, i int) {
				if seg := &segs[k]; seg.prog.Wait(i) {
					var pp [][]core.Score
					if seg.perParam != nil {
						pp = seg.perParam[i]
					}
					verdict(&seg.res.Multi[i], seg.rows[i], pp)
				}
			})
	}

	droppedN, evictedN := 0, 0
	mergeByAddr(len(segs),
		func(k int) int { return len(segs[k].res.Dropped) },
		func(k, i int) [6]byte { return segs[k].res.Dropped[i].Addr },
		func(k, i int) {
			d := segs[k].res.Dropped[i]
			droppedN++
			if d.Evicted {
				evictedN++
			}
			if sink != nil {
				sink.HandleEvent(CandidateDropped{
					Window: meta.Index, Addr: d.Addr,
					Observations: d.Observations, Minimum: s.cfgs[0].MinObservations,
					Evicted: d.Evicted,
				})
			}
		})
	// Evictions beyond the per-shard record cap carry no individual
	// event but count everywhere a total does.
	for k := range segs {
		droppedN += int(segs[k].res.EvictedSilently)
		evictedN += int(segs[k].res.EvictedSilently)
	}

	if sink != nil {
		sink.HandleEvent(WindowClosed{
			Window: meta.Index, Start: meta.Start, End: meta.End, Frames: meta.Frames,
			Senders:    candsN + droppedN,
			Candidates: candsN,
			Matched:    matchedN, Unknown: unknownN, Dropped: droppedN,
		})
	}

	// Enrollment runs after the window's own events and before emitted
	// is advanced, so Flush/Close returning guarantees the flushed
	// windows' promotions (and their events) have landed.
	s.opts.Trainer.step(meta.Index, merged, sink, &s.health, s.opts.HealthSink)

	return windowCounts{matched: matchedN, unknown: unknownN, dropped: droppedN, evicted: evictedN}
}

// Stats returns a snapshot of the engine's counters. The window-scoped
// counters are one consistent group (see Stats); Frames and
// DroppedFrames may run ahead by the records still queued in shards.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		WindowsClosed: s.windows,
		Matched:       s.matched,
		Unknown:       s.unknown,
		Dropped:       s.dropped,
		Evicted:       s.evicted,
	}
	s.mu.Unlock()
	st.Candidates = st.Matched + st.Unknown
	st.Frames = s.frames.Load()
	st.DroppedFrames = s.droppedFrames.Load()
	for _, sh := range s.shards {
		st.LiveSenders += sh.table.LiveSenders()
	}
	st.Index = s.indexStats()
	if ns := s.startNs.Load(); ns != 0 {
		st.Elapsed = time.Duration(time.Now().UnixNano() - ns) //fp:wallclock stats-only elapsed/throughput; no event output depends on it
		if st.Elapsed > 0 {
			st.FramesPerSec = float64(st.Frames) / st.Elapsed.Seconds()
		}
	}
	return st
}
