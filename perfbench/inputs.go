package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/scenario"
)

// genVersion identifies the generator. Bump it whenever generation
// changes, so that inputs cached by an older generator are not reused.
const genVersion = 4

// maxCached bounds the input cache, in (workload, seed) entries; the
// oldest beyond it are deleted before a new one is written.
const maxCached = 6

// inputs are a workload's generated bytes: all the program under test
// receives from the generator.
type inputs struct {
	// Pcaps are radiotap pcap captures, one per monitor.
	Pcaps [][]byte
	// Checkpoint is a binary ensemble checkpoint (fleet-match only).
	Checkpoint []byte
	// GenSeconds is how long generation took.
	GenSeconds float64
}

func (in *inputs) size() int {
	n := len(in.Checkpoint)
	for _, b := range in.Pcaps {
		n += len(b)
	}
	return n
}

// cacheDir is where one workload's inputs for one seed are cached: one
// file per capture, the checkpoint, and the generation time.
func cacheDir(workload string, seed uint64) string {
	return filepath.Join(buildDir, "inputs", fmt.Sprintf("%s-seed%d-gen%d", workload, seed, genVersion))
}

// loadInputs returns the workload's inputs for seed from the cache,
// generating them first in a child process when they are absent, so
// that generation neither counts toward set-up nor shows in this
// process's peak memory. cached reports whether they were there.
func loadInputs(w *workload, seed uint64) (in *inputs, cached bool, err error) {
	dir := cacheDir(w.name, seed)
	switch _, err := os.Stat(dir); {
	case err == nil:
		cached = true
	case errors.Is(err, fs.ErrNotExist):
		self, err := os.Executable()
		if err != nil {
			return nil, false, err
		}
		cmd := exec.Command(self, "--generate", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, false, fmt.Errorf("generating %s inputs: %w", w.name, err)
		}
	default:
		return nil, false, err
	}
	in = new(inputs)
	meta, err := os.ReadFile(filepath.Join(dir, "gen_seconds"))
	if err != nil {
		return nil, false, err
	}
	if in.GenSeconds, err = strconv.ParseFloat(string(meta), 64); err != nil {
		return nil, false, fmt.Errorf("%s: %w", dir, err)
	}
	pcaps, err := filepath.Glob(filepath.Join(dir, "*.pcap"))
	if err != nil {
		return nil, false, err
	}
	slices.Sort(pcaps)
	for _, p := range pcaps {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, false, err
		}
		in.Pcaps = append(in.Pcaps, b)
	}
	if in.Checkpoint, err = os.ReadFile(filepath.Join(dir, "refs.ckpt")); errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	return in, cached, err
}

// generateToCache generates the workload's inputs for seed and stores
// them in the cache. The entry is written under a temporary name and
// renamed into place, so a partial entry is never read.
func generateToCache(w *workload, seed uint64) error {
	start := time.Now()
	in, err := w.generate(seed)
	if err != nil {
		return err
	}
	dir := cacheDir(w.name, seed)
	root := filepath.Dir(dir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	if err := evictCache(root, maxCached-1); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(root, "gen-*.tmp")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // fails harmlessly once renamed
	for i, b := range in.Pcaps {
		if err := os.WriteFile(filepath.Join(tmp, fmt.Sprintf("capture-%02d.pcap", i)), b, 0o644); err != nil {
			return err
		}
	}
	if in.Checkpoint != nil {
		if err := os.WriteFile(filepath.Join(tmp, "refs.ckpt"), in.Checkpoint, 0o644); err != nil {
			return err
		}
	}
	secs := strconv.FormatFloat(time.Since(start).Seconds(), 'f', -1, 64)
	if err := os.WriteFile(filepath.Join(tmp, "gen_seconds"), []byte(secs), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// evictCache deletes the oldest cached inputs until at most keep remain.
func evictCache(dir string, keep int) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*-seed*"))
	if err != nil {
		return err
	}
	type entry struct {
		path string
		mod  time.Time
	}
	var entries []entry
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			entries = append(entries, entry{p, st.ModTime()})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return a.mod.Compare(b.mod) })
	for ; len(entries) > keep; entries = entries[1:] {
		if err := os.RemoveAll(entries[0].path); err != nil {
			return err
		}
	}
	return nil
}

// Workload shapes. Each is sized so that one replay (a pass) takes well
// under two seconds on a 2-core machine, and a 10-second run pools more
// than 1000 verdicts.
const (
	officeStations = 40
	officeRef      = 3 * time.Minute // training prefix at the head of the capture
	officeMonitor  = 7 * time.Minute
	officeWindow   = time.Minute

	fleetSites     = 48
	fleetMonitored = 8 // sites whose live capture is replayed, one monitor each
	fleetStations  = 32
	fleetRef       = 2 * time.Minute
	fleetMonitor   = 4 * time.Minute
	fleetWindow    = time.Minute
	fleetShards    = 2

	servedStations = 96
	servedDuration = 12 * time.Minute
	// Randomizing clients probe in bursts every 30 s; a 2-minute window
	// collects the 8 probes the probe-content parameters require.
	servedWindow = 2 * time.Minute
)

// Each workload simulates one fixed population, and the seed draws
// which frames the monitor misses (captureLoss of them). A population
// drawn per seed would make the seed-to-seed spread of every metric
// mostly a spread of populations — on randomized-served, frames per
// second varied by a third between seeds — where it should measure the
// pipeline. populationSeed fixes the draw.
const (
	populationSeed = 1
	captureLoss    = 0.01
)

func genOffice(seed uint64) (*inputs, error) {
	return singleCapture(scenario.Office("office", populationSeed, officeRef+officeMonitor, officeStations), seed)
}

func genServed(seed uint64) (*inputs, error) {
	return singleCapture(scenario.RandomizedOffice("randomized", populationSeed, servedDuration, servedStations), seed)
}

// singleCapture simulates one monitor and returns its capture, with the
// frames seed's capture loss drops removed.
func singleCapture(p scenario.Params, seed uint64) (*inputs, error) {
	tr, _, err := scenario.Build(p)
	if err != nil {
		return nil, err
	}
	b, err := pcapBytes(lose(tr, seed, 0))
	if err != nil {
		return nil, err
	}
	return &inputs{Pcaps: [][]byte{b}}, nil
}

// genFleet simulates fleetSites office sites, trains one fused
// reference checkpoint from every site's first fleetRef, and keeps the
// rest of the first fleetMonitored sites' captures, thinned by the
// seed's capture loss, as the live sources.
// The sites share the simulator's timebase, so the captures interleave
// under MergeByTime like synchronised monitors.
func genFleet(seed uint64) (*inputs, error) {
	ens, err := core.NewEnsemble(core.MeasureCosine, fleetConfigs()...)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for s := 0; s < fleetSites; s++ {
		dur := fleetRef
		if s < fleetMonitored {
			dur += fleetMonitor
		}
		tr, _, err := scenario.Build(scenario.Office(fmt.Sprintf("site-%d", s), populationSeed*fleetSites+uint64(s), dur, fleetStations))
		if err != nil {
			return nil, err
		}
		remapSite(tr, s)
		train, live := core.Split(tr, fleetRef)
		if err := ens.Train(train); err != nil {
			return nil, err
		}
		if s < fleetMonitored {
			b, err := pcapBytes(lose(live, seed, uint64(s)))
			if err != nil {
				return nil, err
			}
			in.Pcaps = append(in.Pcaps, b)
		}
	}
	var buf bytes.Buffer
	if err := ens.SaveBinary(&buf); err != nil {
		return nil, err
	}
	in.Checkpoint = buf.Bytes()
	return in, nil
}

// lose returns the trace without the frames a monitor drawn from
// (seed, stream) misses, each with probability captureLoss.
func lose(tr *capture.Trace, seed, stream uint64) *capture.Trace {
	r := rand.New(rand.NewPCG(seed, stream))
	out := *tr
	out.Records = make([]capture.Record, 0, len(tr.Records))
	for _, rec := range tr.Records {
		if r.Float64() >= captureLoss {
			out.Records = append(out.Records, rec)
		}
	}
	return &out
}

// remapSite gives a site's simulated addresses a range of their own:
// every site's simulator mints the same 02:00:00:00:00:NN station
// addresses, so the second octet is set to the site number plus one.
func remapSite(tr *capture.Trace, site int) {
	for i := range tr.Records {
		rec := &tr.Records[i]
		rec.Sender = remapAddr(rec.Sender, site)
		rec.Receiver = remapAddr(rec.Receiver, site)
	}
}

func remapAddr(a dot11.Addr, site int) dot11.Addr {
	if a[0] == 0x02 {
		a[1] = byte(site + 1)
	}
	return a
}

func pcapBytes(tr *capture.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
