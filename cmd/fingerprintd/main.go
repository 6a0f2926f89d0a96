// Command fingerprintd is the paper's passive monitoring loop as a
// service: it reads radiotap or AVS/Prism pcap streams record by record
// — files, FIFOs fed by `tcpdump -w`, or stdin (`-`) — and drives a
// sharded, shard-per-core engine that re-identifies every candidate
// device once per detection window, printing one verdict line per
// candidate as each window closes.
//
// With one input and no -rebase, window bounds print in the capture's
// wall clock (15:04:05). Several inputs need not share a wall clock and
// a rebased one has left its own, so their bounds print as offsets into
// the merged stream.
//
// Multiple sources model multiple monitors: each input decodes on its
// own goroutine, and -merge picks the interleaving (time for synced or
// rebased captures — deterministic; arrival for live unsynchronised
// feeds). The engine partitions senders across -shards cores, bounds
// per-shard sender state with -max-senders / -idle-evict (so MAC
// randomization cannot grow memory without bound), and applies the
// -drop backpressure policy when ingestion outruns matching.
//
// References can be loaded (-db, JSON or binary checkpoint), trained
// from the stream's first -ref minutes, or learned entirely online:
// -enroll turns on the live trainer, which promotes every sender that
// has been a candidate for -enroll-windows detection windows into the
// reference set and hot-swaps the engine — a cold start with -ref 0
// begins with zero references and self-populates. -save checkpoints
// the reference database (atomic rename; binary codec unless the path
// ends in .json) on SIGHUP and at shutdown, so a daemon restart
// resumes from the learned references instead of relearning.
//
// The daemon degrades instead of dying: -source-retry reopens a failed
// source with exponential backoff (a FIFO whose writer restarts, a
// file that reappears), logging SourceDown/SourceUp transitions, while
// healthy sources keep flowing; engine shards recover panics and a
// watchdog reports wedged shards; -checkpoint-every saves the
// references periodically with bounded retry, and every save keeps the
// previous generation on disk until the new one is written, fsync'd
// and verified — a crash mid-save never costs the references (loads
// fall back to <path>.1). A run that survived recovered faults exits
// with status 3 so orchestrators can tell a clean run from a degraded
// one.
//
// -listen serves fingerprinting as a service on a trusted network: a
// JSON query API (/api/v1/sites/{site}/senders/{mac} answers "who is
// sender X"), a server-sent-events verdict feed, batch pcap scoring,
// remote checkpoint save/load against the -save path, and Prometheus
// metrics at /metrics (-pprof adds /debug/pprof). -site names this
// daemon's tenant. With -enroll-confirm, senders that complete the
// enrollment horizon wait for an operator verdict posted over the API
// instead of auto-enrolling.
//
// SIGINT/SIGTERM drain gracefully: sources stop, queued records are
// processed, the open window is flushed and matched, and final
// statistics are printed. -stats prints a periodic counters line to
// stderr (plus a health line when anything has faulted). Try it end to
// end:
//
//	go run ./cmd/tracegen -scenario office -duration 30m -stations 24 -o office.pcap
//	go run ./cmd/fingerprintd -ref 5m -window 3m -stats 0 office.pcap
//	go run ./cmd/fingerprintd -ref 0 -enroll -enroll-windows 2 -window 3m -save office.fpdb office.pcap
//
// A -param comma list (e.g. -param rate,size,iat) fuses several
// network parameters into one fingerprint: every member is extracted
// in one pass and each window is matched on the mean of the
// per-parameter similarities; -save then checkpoints the whole fused
// reference set in one versioned container.
//
// Usage:
//
//	fingerprintd [-db ref.fpdb | -ref 20m] [-param iat | -param rate,size,iat]
//	             [-measure cosine]
//	             [-enroll] [-enroll-windows 1] [-save ref.fpdb]
//	             [-checkpoint-every 0] [-source-retry 0]
//	             [-window 5m] [-threshold 0] [-shards 0]
//	             [-queue 8192] [-drop] [-max-senders 0] [-idle-evict 0] [-merge time]
//	             [-listen :9077] [-pprof] [-site default] [-enroll-confirm]
//	             [-rebase] [-cluster] [-stats 10s] [-v] input.pcap|- [input2.pcap ...]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dot11fp"
	"dot11fp/internal/checkpoint"
	"dot11fp/internal/cmdutil"
	"dot11fp/internal/server"
)

func main() {
	dbPath := flag.String("db", "", "reference database (JSON, binary or ensemble checkpoint); overrides -ref")
	ref := flag.Duration("ref", 20*time.Minute, "training prefix learned from the merged stream when no -db is given (0 with -enroll = cold start)")
	paramFlag := flag.String("param", "iat", "network parameter or comma list for fusion (rate,size,mtime,txtime,iat); ignored with -db")
	measureFlag := flag.String("measure", "cosine", "similarity measure; ignored with -db")
	window := flag.Duration("window", dot11fp.DefaultWindow, "detection window size")
	threshold := flag.Float64("threshold", 0, "acceptance threshold on the best similarity")
	enroll := flag.Bool("enroll", false, "enroll unknown senders into the references while monitoring")
	enrollWindows := flag.Int("enroll-windows", 1, "enrollment horizon: windows a sender must be a candidate in before enrolling")
	savePath := flag.String("save", "", "checkpoint the references here on SIGHUP and at shutdown (binary codec unless .json)")
	shards := flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "per-shard queue depth in observations (0 = default)")
	drop := flag.Bool("drop", false, "drop observations instead of blocking when a shard queue is full")
	maxSenders := flag.Int("max-senders", 0, "per-shard cap on tracked senders (0 = unbounded)")
	idleEvict := flag.Duration("idle-evict", 0, "evict senders idle for this long in record time (0 = never)")
	mergeFlag := flag.String("merge", "time", "source interleaving: time (deterministic) or arrival (live feeds)")
	rebase := flag.Bool("rebase", false, "shift each source's clock so its first record lands at offset zero")
	sourceRetry := flag.Duration("source-retry", 0, "reopen failed sources, starting at this backoff and doubling (0 = a failed source retires)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "also checkpoint the references periodically at this interval (0 = only SIGHUP and shutdown)")
	cluster := flag.Bool("cluster", false, "merge MAC-randomizing senders by probe content before attribution (training and monitoring)")
	statsEvery := flag.Duration("stats", 10*time.Second, "periodic stats line interval (0 = off)")
	verbose := flag.Bool("v", false, "also print below-minimum drops, evictions and enrollment progress")
	listen := flag.String("listen", "", "serve the HTTP API, SSE verdict feed and /metrics on this address (trusted networks only; empty = off)")
	pprofFlag := flag.Bool("pprof", false, "with -listen, also mount /debug/pprof")
	siteName := flag.String("site", "default", "site name this daemon serves under /api/v1/sites/{site}")
	enrollConfirm := flag.Bool("enroll-confirm", false, "with -enroll and -listen, hold completed senders for operator approval over the API instead of auto-enrolling")
	flag.Parse()

	if flag.NArg() == 0 {
		fatal(fmt.Errorf("no inputs; usage: fingerprintd [flags] input.pcap [input2.pcap ...|-]"))
	}
	enrollFlags := cmdutil.EnrollFlags{Enroll: *enroll, Windows: *enrollWindows}
	if err := enrollFlags.Validate(); err != nil {
		fatal(err)
	}
	if *enrollConfirm && (!*enroll || *listen == "") {
		fatal(fmt.Errorf("-enroll-confirm needs -enroll and -listen (approvals arrive over the API)"))
	}
	if *pprofFlag && *listen == "" {
		fatal(fmt.Errorf("-pprof needs -listen"))
	}
	mode, err := cmdutil.ParseMergeMode(*mergeFlag)
	if err != nil {
		fatal(err)
	}
	if *savePath != "" {
		if err := cmdutil.CheckSavePath(*savePath); err != nil {
			fatal(fmt.Errorf("-save %s: %w", *savePath, err))
		}
		// Fail fast on the flags path: fused references have no JSON
		// form, and a daemon should learn that before it blocks on a
		// FIFO, not at its first checkpoint. (-db resolutions re-check
		// after the file reveals its member count.)
		if *dbPath == "" {
			if params, err := cmdutil.ParseParams(*paramFlag); err == nil && len(params) > 1 {
				if err := cmdutil.CheckEnsembleSave(*savePath); err != nil {
					fatal(fmt.Errorf("-save %s: %w", *savePath, err))
				}
			}
		}
	}
	// SIGHUP's default disposition would kill the daemon, so it is
	// caught before anything that can block — opening a FIFO source
	// stalls until its writer appears, and training runs for -ref of
	// stream time. A checkpoint request arriving while there is nothing
	// to checkpoint yet waits in the channel until the drainer starts.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	// openSource builds one input and returns its capture clock (the
	// wall time of T=0). File-backed sources carry their file as a
	// Closer, so a supervised reopen (or shutdown) can unblock a read
	// wedged on a FIFO whose writer went away.
	names := flag.Args()
	openSource := func(name string) (dot11fp.RecordSource, func() time.Time, error) {
		if name == "-" {
			src, err := dot11fp.ReadPcapStream(os.Stdin)
			if err != nil {
				return nil, nil, fmt.Errorf("stdin: %w", err)
			}
			return src, src.Base, nil
		}
		f, err := os.Open(name)
		if err != nil {
			return nil, nil, err
		}
		src, err := dot11fp.ReadPcapStream(f)
		if err != nil {
			_ = f.Close() // read-only handle; the decode error is the one reported
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		return dot11fp.WithCloser(src, f), src.Base, nil
	}
	isFIFO := make([]bool, len(names))
	var sources []dot11fp.RecordSource
	var base func() time.Time
	for i, name := range names {
		if name != "-" {
			if info, err := os.Stat(name); err == nil {
				isFIFO[i] = info.Mode()&os.ModeNamedPipe != 0
			}
		}
		src, clock, err := openSource(name)
		if err != nil {
			fatal(err)
		}
		sources = append(sources, src)
		if base == nil {
			base = clock
		}
	}
	var sup dot11fp.Supervisor
	if *sourceRetry > 0 {
		sup = dot11fp.Supervisor{
			Backoff: *sourceRetry,
			Reopen: func(i int) (dot11fp.RecordSource, error) {
				if names[i] == "-" {
					return nil, fmt.Errorf("stdin is not reopenable")
				}
				src, _, err := openSource(names[i])
				return src, err
			},
			// A FIFO's EOF only means its writer hung up — reopen and
			// wait for the next one. A regular file's EOF is the end.
			ReopenOnEOF: func(i int) bool { return isFIFO[i] },
			Notify: func(ev dot11fp.SourceEvent) {
				switch ev := ev.(type) {
				case dot11fp.SourceDown:
					if ev.Permanent {
						fmt.Fprintf(os.Stderr, "fingerprintd: source %d (%s) permanently down: %v\n",
							ev.Source, names[ev.Source], ev.Err)
						return
					}
					fmt.Fprintf(os.Stderr, "fingerprintd: source %d (%s) down (%v), retrying in %v\n",
						ev.Source, names[ev.Source], ev.Err, ev.Retry.Round(time.Millisecond))
				case dot11fp.SourceUp:
					fmt.Fprintf(os.Stderr, "fingerprintd: source %d (%s) reopened (attempt %d)\n",
						ev.Source, names[ev.Source], ev.Attempts)
				}
			},
		}
	}
	stream := dot11fp.NewMultiStreamOpts(
		dot11fp.MultiOptions{Mode: mode, Rebase: *rebase, Supervisor: sup}, sources...)
	defer stream.Close()

	// Graceful drain, armed before training so a signal at any phase is
	// honoured: closing the merged stream makes both the training loop
	// and the ingest loop fall out at EOF, and engine.Close flushes and
	// matches the open window before the final stats line.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "fingerprintd: %v, draining\n", s)
		interrupted.Store(true)
		stream.Close()
		signal.Stop(sigc)
	}()
	// With -cluster, one Clusterer spans training and monitoring: the
	// training prefix is read through it (canonical senders in the
	// references) and the engine's router resolves live frames through
	// the same instance.
	var cl *dot11fp.Clusterer
	var trainStream dot11fp.RecordSource = stream
	if *cluster {
		cl = dot11fp.NewClusterer(0)
		trainStream = cmdutil.NewClusterSource(stream, cl)
	}
	cfgs, measure, refs, pending, err := cmdutil.ResolveReferences(
		*dbPath, *ref, *paramFlag, *measureFlag, enrollFlags, trainStream, len(sources))
	if err != nil {
		if interrupted.Load() {
			fmt.Fprintln(os.Stderr, "fingerprintd: interrupted during training, nothing to drain")
			return
		}
		fatal(err)
	}
	// An ensemble reference set selects the fused engines even with one
	// member — a 1-member ensemble checkpoint must drive the ensemble
	// path, not silently fall back to an empty single-parameter engine.
	fused := refs.Multi() || len(cfgs) > 1
	if fused && *savePath != "" {
		if err := cmdutil.CheckEnsembleSave(*savePath); err != nil {
			fatal(fmt.Errorf("-save %s: %w", *savePath, err))
		}
	}
	// The site is created before the engine because the engine's Sink
	// is fixed at construction and must run through the site's taps
	// (verdict cache + SSE fanout); the engine itself is attached after
	// it exists. The enrollment gate's Decide likewise has to be in the
	// trainer's options from birth.
	var site *server.Site
	if *listen != "" {
		site = server.NewSite(*siteName, server.SiteOptions{
			Window:         *window,
			Threshold:      *threshold,
			CheckpointPath: *savePath,
		})
		if *enrollConfirm {
			enrollFlags.Decide = site.Gate().Decide
		}
	}
	trainer, cdb, cedb, err := enrollFlags.EnrollOrCompile(cfgs, measure, refs) // when enrolling, the trainer owns the references
	if err != nil {
		fatal(err)
	}

	policy := dot11fp.BackpressureBlock
	if *drop {
		policy = dot11fp.BackpressureDrop
	}
	var sink dot11fp.Sink = dot11fp.SinkFunc(cmdutil.Printer(os.Stdout, windowStamp(len(sources), *rebase, base), *verbose))
	//fp:mayblock operator-facing stderr printer for rare health events (panics, stalls)
	var healthSink dot11fp.Sink = dot11fp.SinkFunc(func(ev dot11fp.Event) {
		switch ev := ev.(type) {
		case dot11fp.ComponentPanicked:
			fmt.Fprintf(os.Stderr, "fingerprintd: recovered %s panic (shard %d): %s\n",
				ev.Component, ev.Shard, ev.Err)
		case dot11fp.ShardStalled:
			fmt.Fprintf(os.Stderr, "fingerprintd: shard %d stalled for %v (%d batches queued)\n",
				ev.Shard, ev.For, ev.Queued)
		case dot11fp.ShardResumed:
			fmt.Fprintf(os.Stderr, "fingerprintd: shard %d resumed\n", ev.Shard)
		}
	})
	if site != nil {
		// Verdicts and health events alike flow through the site's taps
		// into the verdict cache and the SSE feed, then on to the
		// printers.
		sink, healthSink = site.Sink(sink), site.Sink(healthSink)
	}
	opts := dot11fp.ShardedOptions{
		Window:       *window,
		Threshold:    *threshold,
		Shards:       *shards,
		QueueLen:     *queue,
		Backpressure: policy,
		Limits:       dot11fp.SenderLimits{MaxSenders: *maxSenders, IdleEvict: *idleEvict},
		Sink:         sink,
		Trainer:      trainer,
		Watchdog:     5 * time.Second,
		HealthSink:   healthSink,
		Cluster:      cl,
	}
	var eng *dot11fp.ShardedEngine
	if fused {
		eng, err = dot11fp.NewShardedEnsembleEngine(cfgs, cedb, opts)
	} else {
		eng, err = dot11fp.NewShardedEngine(cfgs[0], cdb, opts)
	}
	if err != nil {
		fatal(err)
	}
	var srv *server.Server
	if site != nil {
		site.Attach(eng, trainer, stream.SourceStats, refs)
		reg := server.NewRegistry()
		if err := reg.Add(site); err != nil {
			fatal(err)
		}
		srv, err = server.Start(*listen, reg, server.Options{Pprof: *pprofFlag})
		if err != nil {
			fatal(fmt.Errorf("-listen %s: %w", *listen, err))
		}
		fmt.Fprintf(os.Stderr, "fingerprintd: serving HTTP on %s (site %q)\n", srv.Addr(), *siteName)
	}

	// saveCheckpoint writes the current references to -save: the
	// trainer's live copy when enrolling, the static set otherwise. The
	// write is generation-chained (temp + fsync + verify + rotate +
	// rename) with bounded retry, so a SIGHUP checkpoint racing the
	// final one can never leave a torn file, a transient write failure
	// costs a delay instead of the checkpoint, and the previous good
	// generation survives at <path>.1 until the new one is verified on
	// disk. A failed save is logged and counted — never fatal — and the
	// next trigger (SIGHUP, -checkpoint-every tick, shutdown) tries
	// again. Fused references land in the ensemble container;
	// single-parameter ones keep the codec the extension selects.
	var ckptMu sync.Mutex
	var ckptFailures atomic.Uint64
	saveCheckpoint := func(reason string) {
		if *savePath == "" {
			return
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		snap := refs
		if trainer != nil {
			snap = cmdutil.References{DB: trainer.Database(), Ens: trainer.Ensemble()}
		}
		if snap.Empty() {
			fmt.Fprintf(os.Stderr, "fingerprintd: %s: no references to checkpoint yet\n", reason)
			return
		}
		if err := cmdutil.SaveReferencesCheckpoint(*savePath, snap, checkpoint.Options{}); err != nil {
			ckptFailures.Add(1)
			fmt.Fprintf(os.Stderr, "fingerprintd: %s checkpoint failed (previous generation intact, will retry at next trigger): %v\n",
				reason, err)
			return
		}
		fmt.Fprintf(os.Stderr, "fingerprintd: %s: checkpointed %d references to %s\n",
			reason, snap.Len(), *savePath)
	}
	go func() {
		for range hup {
			saveCheckpoint("SIGHUP")
		}
	}()

	stop := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					cmdutil.StatsLine(os.Stderr, "fingerprintd", eng.Stats())
					if trainer != nil {
						cmdutil.TrainerLine(os.Stderr, "fingerprintd", trainer.Stats())
					}
					cmdutil.HealthLine(os.Stderr, "fingerprintd", eng.Health(), stream.SourceStats())
				case <-stop:
					return
				}
			}
		}()
	}
	if *checkpointEvery > 0 && *savePath != "" {
		go func() {
			tick := time.NewTicker(*checkpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					saveCheckpoint("periodic")
				case <-stop:
					return
				}
			}
		}()
	}

	if pending != nil {
		eng.Push(pending)
	}
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		eng.Push(&rec)
	}
	eng.Close()
	close(stop)
	if err := stream.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "fingerprintd: source errors: %v\n", err)
	}
	cmdutil.StatsLine(os.Stderr, "fingerprintd", eng.Stats())
	if trainer != nil {
		cmdutil.TrainerLine(os.Stderr, "fingerprintd", trainer.Stats())
	}
	cmdutil.HealthLine(os.Stderr, "fingerprintd", eng.Health(), stream.SourceStats())
	saveCheckpoint("shutdown")
	// The HTTP server drains last, joined to the same graceful path: the
	// API stays queryable until the final checkpoint is on disk, then
	// SSE feeds are released and in-flight requests get a bounded grace.
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}

	// Degraded-mode exit: the run completed, but only because
	// supervision absorbed faults — recovered panics, a permanently
	// down source, or failed checkpoint saves. Exit 3 so orchestrators
	// can tell this run from a clean one (1 stays "fatal error").
	degraded := cmdutil.Degraded(eng.Health(), stream.SourceStats()) || ckptFailures.Load() > 0
	if degraded {
		fmt.Fprintln(os.Stderr, "fingerprintd: run degraded by recovered faults, exiting 3")
		os.Exit(3)
	}
}

// windowStamp picks how window bounds print: in the capture's wall
// clock when a single source without -rebase sets the stream's clock
// (base reports its wall time at T=0, known once the first record has
// been decoded), as offsets into the merged stream otherwise.
func windowStamp(sources int, rebase bool, base func() time.Time) func(us int64) string {
	if sources != 1 || rebase {
		return offsetStamp
	}
	return func(us int64) string {
		return base().Add(time.Duration(us) * time.Microsecond).Format("15:04:05")
	}
}

// offsetStamp renders a window bound as its offset into the merged
// stream, which spans sources that need not share a wall clock.
func offsetStamp(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(time.Second).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fingerprintd:", err)
	os.Exit(1)
}
