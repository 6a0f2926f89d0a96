// Package cmdutil holds fingerprintd's building blocks — reference
// resolution and training, flag validation, checkpoint I/O, the verdict
// printer and the stats lines — as functions the command wires together
// and tests can drive without a process.
package cmdutil

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dot11fp"
	"dot11fp/internal/checkpoint"
)

// ParseParams maps the -param flag — one short name or a comma list
// ("iat", "rate,size,iat") — to the parameter set. More than one
// parameter selects multi-parameter fusion; duplicates are rejected.
func ParseParams(s string) ([]dot11fp.Param, error) {
	parts := strings.Split(s, ",")
	params := make([]dot11fp.Param, 0, len(parts))
	seen := make(map[dot11fp.Param]bool, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty entry in -param %q", s)
		}
		p, err := dot11fp.ParamByShortName(part)
		if err != nil {
			return nil, err
		}
		if seen[p] {
			return nil, fmt.Errorf("duplicate parameter %q in -param %q", part, s)
		}
		seen[p] = true
		params = append(params, p)
	}
	return params, nil
}

// References is a resolved reference set: a single-parameter database
// or a multi-parameter ensemble — fingerprintd treats both through
// this one handle. The zero value is the cold start (no
// references yet).
type References struct {
	DB  *dot11fp.Database
	Ens *dot11fp.Ensemble
}

// Empty reports a cold start.
func (r References) Empty() bool { return r.DB == nil && r.Ens == nil }

// Multi reports a multi-parameter (ensemble) reference set.
func (r References) Multi() bool { return r.Ens != nil }

// Len returns the number of reference devices (fully-known ones, for
// an ensemble).
func (r References) Len() int {
	switch {
	case r.DB != nil:
		return r.DB.Len()
	case r.Ens != nil:
		return r.Ens.Len()
	}
	return 0
}

// Configs returns the extraction configurations (one per member).
func (r References) Configs() []dot11fp.Config {
	switch {
	case r.DB != nil:
		return []dot11fp.Config{r.DB.Config()}
	case r.Ens != nil:
		return r.Ens.Configs()
	}
	return nil
}

// Measure returns the similarity measure.
func (r References) Measure() dot11fp.Measure {
	switch {
	case r.DB != nil:
		return r.DB.Measure()
	case r.Ens != nil:
		return r.Ens.Measure()
	}
	return 0
}

// defaultConfigs materialises the default extraction configuration per
// parameter.
func defaultConfigs(params []dot11fp.Param) []dot11fp.Config {
	cfgs := make([]dot11fp.Config, len(params))
	for i, p := range params {
		cfgs[i] = dot11fp.DefaultConfig(p)
	}
	return cfgs
}

// TrainFromStream materialises only the training prefix of a record
// stream (records with T within refDur of the first record), builds
// the reference set — a database for one parameter, an ensemble for
// several — and hands back the boundary record so monitoring starts
// exactly where training stopped — Split's anchoring, streamed. Works
// over any record source: a single pcap stream or a multi-source merge.
func TrainFromStream(stream dot11fp.RecordSource, refDur time.Duration, params []dot11fp.Param, measure dot11fp.Measure) (References, *dot11fp.Record, error) {
	train := &dot11fp.Trace{}
	var cut int64
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return References{}, nil, err
		}
		if len(train.Records) == 0 {
			cut = rec.T + refDur.Microseconds()
		}
		if rec.T >= cut {
			refs, err := trainRefs(train, params, measure)
			if err != nil {
				return References{}, nil, err
			}
			return refs, &rec, nil
		}
		train.Records = append(train.Records, rec)
	}
	return References{}, nil, fmt.Errorf("stream ended inside the %v training prefix (%d records)", refDur, len(train.Records))
}

// trainRefs builds the reference set for the parameter list from a
// materialised training trace.
func trainRefs(train *dot11fp.Trace, params []dot11fp.Param, measure dot11fp.Measure) (References, error) {
	if len(params) == 1 {
		db := dot11fp.NewDatabase(dot11fp.DefaultConfig(params[0]), measure)
		if err := db.Train(train); err != nil {
			return References{}, err
		}
		return References{DB: db}, nil
	}
	ens, err := dot11fp.NewEnsemble(measure, defaultConfigs(params)...)
	if err != nil {
		return References{}, err
	}
	if err := ens.Train(train); err != nil {
		return References{}, err
	}
	return References{Ens: ens}, nil
}

// ClusterSource wraps a record stream with the clustering stage:
// every record's sender is resolved through cl before the consumer
// sees it, so a training prefix read through the wrapper learns
// canonical cluster addresses — the same addresses the engine's own
// Cluster option resolves at monitoring time (canonical addresses are
// a pure function of probe content, and re-resolving one is a no-op,
// so sharing cl between the wrapper and the engine is safe and keeps
// the binding table warm across the train/monitor boundary).
type ClusterSource struct {
	src dot11fp.RecordSource
	cl  *dot11fp.Clusterer
}

// NewClusterSource wraps src so every record is sender-resolved
// through cl. A nil cl returns src unchanged.
func NewClusterSource(src dot11fp.RecordSource, cl *dot11fp.Clusterer) dot11fp.RecordSource {
	if cl == nil {
		return src
	}
	return &ClusterSource{src: src, cl: cl}
}

// Next reads the next record and rewrites its sender to the canonical
// cluster address.
func (s *ClusterSource) Next() (dot11fp.Record, error) {
	rec, err := s.src.Next()
	if err != nil {
		return rec, err
	}
	rec.Sender = s.cl.Resolve(&rec)
	return rec, nil
}

// ParseMergeMode maps the -merge flag to a merge mode.
func ParseMergeMode(s string) (dot11fp.MergeMode, error) {
	switch s {
	case "time":
		return dot11fp.MergeByTime, nil
	case "arrival":
		return dot11fp.MergeArrival, nil
	default:
		return 0, fmt.Errorf("unknown -merge mode %q (want time or arrival)", s)
	}
}

// EnrollFlags is the shared -enroll flag cluster of the monitoring
// commands.
type EnrollFlags struct {
	// Enroll enables online enrollment (-enroll).
	Enroll bool
	// Windows is the enrollment horizon in detection windows
	// (-enroll-windows).
	Windows int
	// Decide, when non-nil, switches the trainer to confirm mode with
	// this three-way callback (approve/reject/defer) deciding each
	// completed sender — the HTTP server's enrollment gate plugs in
	// here (fingerprintd -enroll-confirm).
	Decide func(dot11fp.PendingEnrollment) dot11fp.EnrollDecision
}

// Validate rejects inconsistent flag combinations before any work
// starts.
func (f EnrollFlags) Validate() error {
	if f.Windows < 1 {
		return fmt.Errorf("-enroll-windows must be at least 1 (got %d)", f.Windows)
	}
	if !f.Enroll && f.Windows != 1 {
		return fmt.Errorf("-enroll-windows requires -enroll")
	}
	return nil
}

// NewTrainer builds the trainer the flags describe: auto-enrollment
// over the given horizon (confirm mode when Decide is set), references
// frozen once enrolled. seed may be
// empty for a cold start; a multi-parameter seed (or cfgs list) yields
// an ensemble trainer.
func (f EnrollFlags) NewTrainer(cfgs []dot11fp.Config, measure dot11fp.Measure, seed References) (*dot11fp.Trainer, error) {
	opts := dot11fp.TrainerOptions{Horizon: f.Windows}
	if f.Decide != nil {
		opts.Policy, opts.Decide = dot11fp.EnrollConfirm, f.Decide
	}
	switch {
	case seed.DB != nil:
		return dot11fp.NewTrainerFrom(seed.DB, opts), nil
	case seed.Ens != nil:
		return dot11fp.NewEnsembleTrainerFrom(seed.Ens, opts)
	case len(cfgs) > 1:
		return dot11fp.NewEnsembleTrainer(cfgs, measure, opts)
	}
	return dot11fp.NewTrainer(cfgs[0], measure, opts), nil
}

// EnrollOrCompile turns resolved references into the engine's inputs:
// when enrolling, a live trainer that owns the references (warm-started
// from refs when they were resolved); otherwise the compiled database
// or ensemble, nil on a cold start. At most one of the three results is
// non-nil.
func (f EnrollFlags) EnrollOrCompile(cfgs []dot11fp.Config, measure dot11fp.Measure, refs References) (trainer *dot11fp.Trainer, cdb *dot11fp.CompiledDB, cedb *dot11fp.CompiledEnsemble, err error) {
	if f.Enroll {
		trainer, err = f.NewTrainer(cfgs, measure, refs)
		return
	}
	switch {
	case refs.DB != nil:
		cdb = refs.DB.Compile()
	case refs.Ens != nil:
		cedb = refs.Ens.Compile()
	}
	return
}

// ResolveReferences is fingerprintd's reference resolution: load a
// saved reference set (dbPath, any codec — the param and measure names
// are ignored, both come from the file), train on the stream's first
// ref duration, or accept a cold start when enrollment will populate
// the references. paramList takes the -param comma syntax; more than
// one parameter resolves a multi-parameter ensemble. pending is the
// first record past a training prefix, nil otherwise. Progress is
// reported on stderr; sources > 1 notes the multi-source merge.
func ResolveReferences(dbPath string, ref time.Duration, paramList, measureName string, enroll EnrollFlags, stream dot11fp.RecordSource, sources int) (cfgs []dot11fp.Config, measure dot11fp.Measure, refs References, pending *dot11fp.Record, err error) {
	if dbPath != "" {
		var gen int
		if refs, gen, err = LoadReferencesChain(dbPath, checkpoint.Options{}); err != nil {
			return
		}
		if gen > 0 {
			fmt.Fprintf(os.Stderr, "checkpoint: %s unreadable; recovered generation %d (%s)\n",
				dbPath, gen, checkpoint.GenPath(dbPath, gen))
		}
		cfgs, measure = refs.Configs(), refs.Measure()
		fmt.Fprintf(os.Stderr, "fingerprintd: loaded %d references (%s, %s)\n", refs.Len(), paramsLabel(cfgs), measure)
		return
	}
	// The param/measure flags only shape training and cold starts, so
	// they are only parsed — and can only fail — on this path.
	params, err := ParseParams(paramList)
	if err != nil {
		return
	}
	if measure, err = dot11fp.MeasureByName(measureName); err != nil {
		return
	}
	cfgs = defaultConfigs(params)
	switch {
	case ref <= 0 && enroll.Enroll:
		after := ""
		if enroll.Windows > 1 {
			after = fmt.Sprintf(" after %d windows", enroll.Windows)
		}
		fmt.Fprintf(os.Stderr, "fingerprintd: cold start (%s, %s), enrolling%s\n", paramsLabel(cfgs), measure, after)
	case ref <= 0:
		err = fmt.Errorf("-ref 0 needs -enroll (nothing would ever match) or -db")
	default:
		if refs, pending, err = TrainFromStream(stream, ref, params, measure); err != nil {
			return
		}
		cfgs = refs.Configs()
		from := fmt.Sprintf("the first %v", ref)
		if sources > 1 {
			from += fmt.Sprintf(" of %d sources", sources)
		}
		fmt.Fprintf(os.Stderr, "fingerprintd: trained %d references from %s (%s)\n", refs.Len(), from, paramsLabel(cfgs))
		if refs.Ens != nil {
			if partial := refs.Ens.Partial(); len(partial) > 0 {
				// The operator hears about enrolled-yet-unmatchable
				// devices instead of wondering why they never match.
				fmt.Fprintf(os.Stderr, "fingerprintd: %d devices cleared only some parameters and will never match: %v\n",
					len(partial), partial)
			}
		}
	}
	return
}

// paramsLabel renders the parameter set for progress lines.
func paramsLabel(cfgs []dot11fp.Config) string {
	if len(cfgs) == 1 {
		return cfgs[0].Param.String()
	}
	names := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		names[i] = cfg.Param.ShortName()
	}
	return "fused " + strings.Join(names, "+")
}

// LoadReferencesChain reads a reference set from disk in any codec,
// sniffing the leading bytes: JSON documents open with '{' (possibly
// after indentation a hand edit left behind), binary database
// checkpoints with "D11FPDB", ensemble containers with "D11FPENS".
//
// The path names a checkpoint generation chain (see
// internal/checkpoint): when the current file is missing or corrupt,
// the previous good generation at path.1 loads instead — a crash
// mid-save or a torn disk never costs the daemon its references. The
// generation that loaded is returned (0 = the current file).
func LoadReferencesChain(path string, opts checkpoint.Options) (References, int, error) {
	var refs References
	gen, err := checkpoint.Load(path, opts, func(r io.Reader) error {
		var lerr error
		refs, lerr = loadReferencesReader(r)
		return lerr
	})
	if err != nil {
		return References{}, 0, err
	}
	return refs, gen, nil
}

// loadReferencesReader decodes one reference-set stream, sniffing the
// codec from its leading bytes.
func loadReferencesReader(r io.Reader) (References, error) {
	br := bufio.NewReader(r)
	for {
		head, err := br.Peek(1)
		switch {
		case err == io.EOF:
			return References{}, fmt.Errorf("empty database file")
		case err != nil:
			return References{}, err
		case head[0] == ' ' || head[0] == '\t' || head[0] == '\n' || head[0] == '\r':
			br.Discard(1) // neither binary magic starts with whitespace
			continue
		}
		var refs References
		switch {
		case head[0] == '{':
			refs.DB, err = dot11fp.LoadDatabase(br)
		default:
			// Both binary magics share the "D11FP" prefix; the extra
			// bytes decide. A short file fails the Peek and falls through
			// to the single-database loader's typed corruption error.
			magic, _ := br.Peek(8)
			if string(magic) == "D11FPENS" {
				refs.Ens, err = dot11fp.LoadBinaryEnsemble(br)
			} else {
				refs.DB, err = dot11fp.LoadBinaryDatabase(br)
			}
		}
		if err != nil {
			return References{}, err
		}
		return refs, nil
	}
}

// VerifyReferencesHeader checks that a stream opens like a loadable
// reference checkpoint: a JSON document or one of the binary magics.
// It is the checkpoint save path's verify step — cheap enough to run
// on every save, strong enough to catch the failure it exists for (a
// truncated or zero-filled file surfacing after a crash).
func VerifyReferencesHeader(r io.Reader) error {
	br := bufio.NewReader(r)
	for {
		head, err := br.Peek(1)
		switch {
		case err != nil:
			return fmt.Errorf("reference checkpoint header unreadable: %v", err)
		case head[0] == ' ' || head[0] == '\t' || head[0] == '\n' || head[0] == '\r':
			br.Discard(1)
			continue
		case head[0] == '{':
			return nil
		}
		magic, err := br.Peek(8)
		if err != nil {
			return fmt.Errorf("reference checkpoint header unreadable: %v", err)
		}
		if string(magic) == "D11FPENS" || string(magic[:7]) == "D11FPDB" {
			return nil
		}
		return fmt.Errorf("reference checkpoint header %q matches no codec", magic)
	}
}

// SaveReferencesCheckpoint checkpoints a reference set to disk
// atomically: the bytes land in a temporary file in the target
// directory which is then fsynced, header-verified by re-reading, and
// renamed over path, so a reader (or a crash) never observes a torn
// checkpoint. A single database's codec follows the extension (.json
// writes the interop JSON document, everything else the fast binary
// format); an ensemble always writes the versioned binary container
// (there is no JSON interop form for fused references — a .json path
// is rejected up front rather than silently writing binary bytes under
// a lying name). opts keeps a generation chain (Options.Generations)
// and retries transient write failures with backoff (Options.Retries)
// instead of losing a SIGHUP save to one full disk; the previous
// generation is not disturbed until the new file verifies.
func SaveReferencesCheckpoint(path string, refs References, opts checkpoint.Options) error {
	var write func(w io.Writer) error
	switch {
	case refs.Ens != nil:
		if err := CheckEnsembleSave(path); err != nil {
			return err
		}
		write = refs.Ens.SaveBinary
	case refs.DB != nil:
		if strings.EqualFold(filepath.Ext(path), ".json") {
			write = refs.DB.Save
		} else {
			write = refs.DB.SaveBinary
		}
	default:
		return fmt.Errorf("no references to checkpoint")
	}
	return checkpoint.SaveRetry(path, opts, write, VerifyReferencesHeader)
}

// CheckEnsembleSave rejects a checkpoint path that cannot hold fused
// references: there is no JSON interop form for ensembles, so a .json
// path would either lie about its contents or fail at checkpoint time
// — after the daemon has learned everything it is about to lose. One
// policy, shared by the save path and fingerprintd's fail-fast checks.
func CheckEnsembleSave(path string) error {
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return fmt.Errorf("multi-parameter references checkpoint in the binary container; use a non-.json path for %s", path)
	}
	return nil
}

// CheckSavePath fails fast when a checkpoint path is not writable — a
// daemon that discovers a typo'd -save directory only at its first
// SIGHUP (or at shutdown) has already lost everything it learned. The
// probe creates and removes a temp file beside the target, the same
// write SaveReferencesCheckpoint will later perform.
func CheckSavePath(path string) error {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return fmt.Errorf("checkpoint path %s is a directory", path)
	}
	probe, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".probe*")
	if err != nil {
		return fmt.Errorf("checkpoint path is not writable: %w", err)
	}
	_ = probe.Close() // nothing was written; the probe is removed on the next line
	return os.Remove(probe.Name())
}

// Printer renders engine events as one line each on w — the monitoring
// commands' shared output format. stamp renders a window bound
// (trace-time µs) the way the command's clock works: wall time for a
// single capture, stream offset for a multi-source merge. verbose also
// prints below-minimum and evicted drops and enrollment progress.
func Printer(w io.Writer, stamp func(us int64) string, verbose bool) func(dot11fp.Event) {
	return func(ev dot11fp.Event) {
		switch ev := ev.(type) {
		case dot11fp.CandidateMatched:
			fmt.Fprintf(w, "w%03d  %s  matched  %s  sim=%.4f  obs=%d\n",
				ev.Window, ev.Addr, ev.Best.Addr, ev.Best.Sim, ev.Observations())
		case dot11fp.UnknownDevice:
			if ev.HasBest {
				fmt.Fprintf(w, "w%03d  %s  UNKNOWN  (best %s sim=%.4f)  obs=%d\n",
					ev.Window, ev.Addr, ev.Best.Addr, ev.Best.Sim, ev.Observations())
			} else {
				fmt.Fprintf(w, "w%03d  %s  UNKNOWN  (no references)  obs=%d\n",
					ev.Window, ev.Addr, ev.Observations())
			}
		case dot11fp.CandidateDropped:
			if verbose {
				if ev.Evicted {
					fmt.Fprintf(w, "w%03d  %s  evicted  %d observations\n",
						ev.Window, ev.Addr, ev.Observations)
				} else {
					fmt.Fprintf(w, "w%03d  %s  dropped  %d/%d observations\n",
						ev.Window, ev.Addr, ev.Observations, ev.Minimum)
				}
			}
		case dot11fp.EnrollmentProgress:
			if verbose {
				fmt.Fprintf(w, "w%03d  %s  enrolling  %d/%d windows, %d observations\n",
					ev.Window, ev.Addr, ev.Windows, ev.Horizon, ev.Observations)
			}
		case dot11fp.DeviceEnrolled:
			fmt.Fprintf(w, "w%03d  %s  ENROLLED  after %d windows, %d observations (%d references)\n",
				ev.Window, ev.Addr, ev.Windows, ev.Observations, ev.Refs)
		case dot11fp.DBSwapped:
			fmt.Fprintf(w, "-- references v%d installed: %d devices (%d enrolled, %d updated)\n",
				ev.Version, ev.Refs, ev.Enrolled, ev.Updated)
		case dot11fp.WindowClosed:
			fmt.Fprintf(w, "-- window %d [%s, %s): %d frames, %d senders, %d candidates (%d matched, %d unknown), %d dropped\n",
				ev.Window, stamp(ev.Start), stamp(ev.End), ev.Frames,
				ev.Senders, ev.Candidates, ev.Matched, ev.Unknown, ev.Dropped)
		}
	}
}

// StatsLine prints one operator-readable counters snapshot, prefixed
// with the command name.
func StatsLine(w io.Writer, prefix string, st dot11fp.EngineStats) {
	fmt.Fprintf(w,
		"%s: %d frames in %v (%.0f frames/s), %d live senders, %d windows, %d candidates (%d matched, %d unknown), %d dropped senders (%d evicted), %d dropped frames\n",
		prefix, st.Frames, st.Elapsed.Round(time.Millisecond), st.FramesPerSec, st.LiveSenders,
		st.WindowsClosed, st.Candidates, st.Matched, st.Unknown,
		st.Dropped, st.Evicted, st.DroppedFrames)
}

// Degraded reports a run that only kept going because supervision
// absorbed unrecoverable faults: recovered panics, or a source that
// exhausted its reopen attempts. One definition, shared by
// fingerprintd's exit-3 policy and the HTTP server's per-site status —
// transient faults (a source down but still reopening, reopens that
// succeeded) do not count; HealthLine still reports them.
func Degraded(h dot11fp.EngineHealth, srcs []dot11fp.SourceStats) bool {
	if h.Panics() > 0 {
		return true
	}
	for _, s := range srcs {
		if s.Permanent {
			return true
		}
	}
	return false
}

// HealthLine prints one operator-readable supervision snapshot: engine
// health (recovered panics, stalled shards) and per-source supervision
// counters. It prints nothing when everything is clean and no source
// has ever faulted — the common case stays quiet.
func HealthLine(w io.Writer, prefix string, h dot11fp.EngineHealth, srcs []dot11fp.SourceStats) {
	degraded := !h.Healthy()
	for _, s := range srcs {
		if s.Failures > 0 || s.Reopens > 0 || s.Down {
			degraded = true
		}
	}
	if !degraded {
		return
	}
	fmt.Fprintf(w, "%s: health: %d recovered panics (%d shard, %d merger, %d trainer, %d engine)",
		prefix, h.Panics(), h.ShardPanics, h.MergerPanics, h.TrainerPanics, h.EnginePanics)
	if len(h.StalledShards) > 0 {
		fmt.Fprintf(w, ", stalled shards %v", h.StalledShards)
	}
	if h.LastPanic != "" {
		fmt.Fprintf(w, ", last panic: %s", h.LastPanic)
	}
	fmt.Fprintln(w)
	for i, s := range srcs {
		if s.Failures == 0 && s.Reopens == 0 && !s.Down {
			continue
		}
		state := "up"
		switch {
		case s.Permanent:
			state = "permanently down"
		case s.Down:
			state = "down, reopening"
		}
		fmt.Fprintf(w, "%s: source %d: %s, %d records, %d decode errors, %d failures, %d reopens\n",
			prefix, i, state, s.Records, s.DecodeErrors, s.Failures, s.Reopens)
	}
}

// TrainerLine prints one operator-readable enrollment snapshot. Denied
// counts skipped candidate observations (one per window a deny-listed
// sender stays active) and Rejected counts confirm-refused senders —
// different units, so they are reported separately.
func TrainerLine(w io.Writer, prefix string, st dot11fp.TrainerStats) {
	fmt.Fprintf(w,
		"%s: enrollment: %d references (%d enrolled live, %d updates, %d swaps), %d pending, %d rejected, %d denied observations\n",
		prefix, st.Refs, st.Enrolled, st.Updated, st.Swaps, st.Pending, st.Rejected, st.Denied)
}
