package main

import (
	"bytes"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/cmdutil"
	"dot11fp/internal/core"
	"dot11fp/internal/engine"
	"dot11fp/internal/server"
)

// workload is one named input family and the pipeline it drives.
type workload struct {
	name     string
	generate func(seed uint64) (*inputs, error)
	// setup acquires the references and builds one replay's pipeline
	// around sink. serial asks for the single-threaded form, the
	// reference the correctness gate compares against.
	setup func(in *inputs, sink engine.Sink, serial bool) (*pipeline, error)
	// prefix is the training prefix at the head of the capture, which
	// set-up reads (office-replay).
	prefix time.Duration
	// served puts the engine behind the HTTP server, with the SSE
	// subscriber as the verdict consumer.
	served bool
}

var workloads = map[string]*workload{
	"office-replay":     {name: "office-replay", generate: genOffice, setup: setupOffice, prefix: officeRef},
	"fleet-match":       {name: "fleet-match", generate: genFleet, setup: setupFleet},
	"randomized-served": {name: "randomized-served", generate: genServed, setup: setupServed, served: true},
}

func fleetConfigs() []core.Config {
	return []core.Config{core.DefaultConfig(core.ParamInterArrival), core.DefaultConfig(core.ParamTxTime)}
}

func servedConfigs() []core.Config {
	return []core.Config{
		core.DefaultConfig(core.ParamInterArrival),
		core.DefaultConfig(core.ParamProbeIE),
		core.DefaultConfig(core.ParamProbeCap),
	}
}

// pusher is the push contract both engines implement, plus the
// snapshot surface the server reads.
type pusher interface {
	Push(*capture.Record)
	Close()
	server.EngineHandle
}

// engineSpec is how a workload configures its engine, so that the layer
// passes can rebuild it serial or sharded.
type engineSpec struct {
	cfgs    []core.Config
	window  time.Duration
	cdb     *core.CompiledDB       // single-parameter references
	cedb    *core.CompiledEnsemble // fused references
	enroll  bool                   // cold-start trainer: horizon 1, updating
	cluster bool                   // MAC-randomization clustering
}

// build constructs the engine — the serial Engine for shards ≤ 1,
// Sharded otherwise — and its trainer when enroll is set.
func (s engineSpec) build(shards int, sink engine.Sink) (pusher, *engine.Trainer, error) {
	multi := len(s.cfgs) > 1
	var tr *engine.Trainer
	if s.enroll {
		opts := engine.TrainerOptions{Horizon: 1, Update: true}
		if multi {
			var err error
			if tr, err = engine.NewEnsembleTrainer(s.cfgs, core.MeasureCosine, opts); err != nil {
				return nil, nil, err
			}
		} else {
			tr = engine.NewTrainer(s.cfgs[0], core.MeasureCosine, opts)
		}
	}
	var cl *core.Clusterer
	if s.cluster {
		cl = core.NewClusterer(0)
	}
	if shards <= 1 {
		opts := engine.Options{Window: s.window, Sink: sink, Trainer: tr, Cluster: cl}
		if multi {
			e, err := engine.NewEnsemble(s.cfgs, s.cedb, opts)
			return e, tr, err
		}
		e, err := engine.New(s.cfgs[0], s.cdb, opts)
		return e, tr, err
	}
	opts := engine.ShardedOptions{Window: s.window, Shards: shards, Sink: sink, Trainer: tr, Cluster: cl}
	if multi {
		e, err := engine.NewShardedEnsemble(s.cfgs, s.cedb, opts)
		return e, tr, err
	}
	e, err := engine.NewSharded(s.cfgs[0], s.cdb, opts)
	return e, tr, err
}

// pipeline is one replay's pipeline after set-up.
type pipeline struct {
	spec    engineSpec
	eng     pusher
	trainer *engine.Trainer
	// open starts reading the monitored capture bytes.
	open func() capture.RecordSource
	// pending is the first monitored record when set-up has read it
	// already (the end of office-replay's training prefix).
	pending *capture.Record
	skipped func() uint64
	// release stops what open started; nil when there is nothing to stop.
	release func()
	// The references matched against: compiled, and as member databases
	// (one per fused parameter). For a trainer they are its final ones.
	cdb     *core.CompiledDB
	cedb    *core.CompiledEnsemble
	members []*core.Database
}

// adoptTrainer takes the trainer's final references as the pipeline's,
// for the layer passes that match against them.
func (p *pipeline) adoptTrainer() {
	if ens := p.trainer.Ensemble(); ens != nil {
		p.members, p.cedb = ens.Members(), p.trainer.CompiledEnsemble()
	} else if db := p.trainer.Database(); db != nil {
		p.members, p.cdb = []*core.Database{db}, p.trainer.Compiled()
	}
}

// setupOffice is livemon's default path: train iat references from the
// capture's first officeRef, compile them, and monitor the rest with
// the serial engine.
func setupOffice(in *inputs, sink engine.Sink, _ bool) (*pipeline, error) {
	sr, err := capture.NewStreamReader(bytes.NewReader(in.Pcaps[0]))
	if err != nil {
		return nil, err
	}
	refs, pending, err := cmdutil.TrainFromStream(sr, officeRef, []core.Param{core.ParamInterArrival}, core.MeasureCosine)
	if err != nil {
		return nil, err
	}
	spec := engineSpec{cfgs: []core.Config{refs.DB.Config()}, window: officeWindow, cdb: refs.DB.Compile()}
	e, _, err := spec.build(1, sink)
	if err != nil {
		return nil, err
	}
	return &pipeline{
		spec: spec, eng: e, pending: pending, skipped: sr.Skipped,
		open: func() capture.RecordSource { return sr },
		cdb:  spec.cdb, members: []*core.Database{refs.DB},
	}, nil
}

// setupFleet is fingerprintd's path: load the fused reference
// checkpoint, compile it, and merge the monitors' captures by time into
// a 2-shard engine (the serial engine for the reference replay).
func setupFleet(in *inputs, sink engine.Sink, serial bool) (*pipeline, error) {
	ens, err := core.LoadBinaryEnsemble(bytes.NewReader(in.Checkpoint))
	if err != nil {
		return nil, err
	}
	spec := engineSpec{cfgs: ens.Configs(), window: fleetWindow, cedb: ens.Compile()}
	readers := make([]*capture.StreamReader, len(in.Pcaps))
	srcs := make([]capture.RecordSource, len(in.Pcaps))
	for i, b := range in.Pcaps {
		if readers[i], err = capture.NewStreamReader(bytes.NewReader(b)); err != nil {
			return nil, err
		}
		srcs[i] = readers[i]
	}
	shards := fleetShards
	if serial {
		shards = 1
	}
	e, _, err := spec.build(shards, sink)
	if err != nil {
		return nil, err
	}
	p := &pipeline{spec: spec, eng: e, cedb: spec.cedb, members: ens.Members()}
	p.skipped = func() uint64 {
		var n uint64
		for _, r := range readers {
			n += r.Skipped()
		}
		return n
	}
	p.open = func() capture.RecordSource {
		ms := capture.NewMultiStream(capture.MergeByTime, false, srcs...)
		p.release = ms.Close
		return ms
	}
	return p, nil
}

// setupServed is a cold-start monitor of a fully randomized office:
// probe-content clustering, fused iat+probe-ie+probe-cap, and a trainer
// that enrolls or updates every window, so every window ends in a
// compile and a hot-swap. The runner serves the engine over HTTP.
func setupServed(in *inputs, sink engine.Sink, _ bool) (*pipeline, error) {
	sr, err := capture.NewStreamReader(bytes.NewReader(in.Pcaps[0]))
	if err != nil {
		return nil, err
	}
	spec := engineSpec{cfgs: servedConfigs(), window: servedWindow, enroll: true, cluster: true}
	e, tr, err := spec.build(1, sink)
	if err != nil {
		return nil, err
	}
	return &pipeline{
		spec: spec, eng: e, trainer: tr, skipped: sr.Skipped,
		open: func() capture.RecordSource { return sr },
	}, nil
}
