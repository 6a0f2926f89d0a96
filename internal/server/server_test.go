package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dot11fp"
	"dot11fp/internal/checkpoint"
	"dot11fp/internal/cmdutil"
	"dot11fp/internal/dot11"
)

const testWindow = 2 * time.Minute

// testTrace synthesises the shared office trace: 12 minutes, 8
// stations, deterministic.
func testTrace(t testing.TB) *dot11fp.Trace {
	t.Helper()
	tr, err := dot11fp.GenerateOffice("srv-office", 7, 12*time.Minute, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// testRefs trains a reference database on the trace's first half and
// returns it with the validation remainder.
func testRefs(t testing.TB, tr *dot11fp.Trace) (*dot11fp.Database, *dot11fp.Trace) {
	t.Helper()
	train, val := dot11fp.Split(tr, 6*time.Minute)
	db := dot11fp.NewDatabase(dot11fp.DefaultConfig(dot11fp.ParamInterArrival), dot11fp.MeasureCosine)
	if err := db.Train(train); err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("training produced no references")
	}
	return db, val
}

// eventLog is a collecting sink, safe for the delivery goroutine.
type eventLog struct {
	mu     sync.Mutex
	events []dot11fp.Event
}

func (l *eventLog) HandleEvent(ev dot11fp.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []dot11fp.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]dot11fp.Event(nil), l.events...)
}

// serveSites mounts the sites on an httptest server.
func serveSites(t testing.TB, opts Options, sites ...*Site) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for _, s := range sites {
		if err := reg.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(reg, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t testing.TB, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestSenderQueryMatchesBatchPath pins the query API's core promise:
// "who is sender X" answers with exactly the verdict the batch path
// produces for the same records — same window, same best reference,
// same similarity, same full score vector.
func TestSenderQueryMatchesBatchPath(t *testing.T) {
	t.Parallel()
	db, val := testRefs(t, testTrace(t))
	site := NewSite("main", SiteOptions{Window: testWindow})
	var direct eventLog
	eng, err := dot11fp.NewEngine(db.Config(), db.Compile(), dot11fp.EngineOptions{
		Window: testWindow, Sink: site.Sink(&direct),
	})
	if err != nil {
		t.Fatal(err)
	}
	site.Attach(eng, nil, nil, cmdutil.References{DB: db})
	_, ts := serveSites(t, Options{}, site)

	eng.PushTrace(val)
	eng.Close()

	// The expected verdicts: the last verdict event per sender from the
	// direct sink (the site's taps see the identical stream).
	type expect struct {
		window  int
		matched bool
		best    string
		sim     float64
		hasBest bool
		obs     uint64
		scores  []dot11fp.Score
	}
	want := make(map[string]expect)
	for _, ev := range direct.snapshot() {
		switch ev := ev.(type) {
		case dot11fp.CandidateMatched:
			want[ev.Addr.String()] = expect{
				window: ev.Window, matched: true,
				best: ev.Best.Addr.String(), sim: ev.Best.Sim, hasBest: true,
				obs: ev.Observations(), scores: ev.Scores,
			}
		case dot11fp.UnknownDevice:
			e := expect{window: ev.Window, obs: ev.Observations(), scores: ev.Scores}
			if ev.HasBest {
				e.best, e.sim, e.hasBest = ev.Best.Addr.String(), ev.Best.Sim, true
			}
			want[ev.Addr.String()] = e
		}
	}
	if len(want) == 0 {
		t.Fatal("validation run produced no verdicts")
	}

	// The senders listing covers exactly the verdict-carrying senders.
	var listing struct {
		HaveWindow bool            `json:"have_window"`
		Senders    []SenderVerdict `json:"senders"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/sites/main/senders", &listing); code != http.StatusOK {
		t.Fatalf("senders listing: status %d", code)
	}
	if !listing.HaveWindow {
		t.Fatal("senders listing reports no closed window")
	}
	if len(listing.Senders) != len(want) {
		t.Fatalf("listing has %d senders, direct sink saw %d", len(listing.Senders), len(want))
	}

	// Every sender's query answer matches the direct verdict, scores
	// included.
	for addr, w := range want {
		var v SenderVerdict
		if code := getJSON(t, ts.URL+"/api/v1/sites/main/senders/"+addr, &v); code != http.StatusOK {
			t.Fatalf("sender %s: status %d", addr, code)
		}
		if v.Window != w.window || v.Matched != w.matched || v.HasBest != w.hasBest ||
			v.Best != w.best || v.BestSim != w.sim || v.Observations != w.obs {
			t.Fatalf("sender %s: got %+v, want %+v", addr, v, w)
		}
		if len(v.Scores) != len(w.scores) {
			t.Fatalf("sender %s: %d scores, want %d", addr, len(v.Scores), len(w.scores))
		}
		for i, sc := range w.scores {
			if v.Scores[i].Ref != sc.Addr.String() || v.Scores[i].Sim != sc.Sim {
				t.Fatalf("sender %s score %d: got %+v, want {%s %v}", addr, i, v.Scores[i], sc.Addr, sc.Sim)
			}
		}
	}

	// The batch-scoring endpoint over the same pcap agrees verdict for
	// verdict: the one-shot engine runs the same configuration against
	// the same references.
	var pcap bytes.Buffer
	if err := dot11fp.WritePcap(&pcap, val); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/sites/main/score", "application/octet-stream", &pcap)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d", resp.StatusCode)
	}
	var scored struct {
		Records  int `json:"records"`
		Verdicts []struct {
			Window       int     `json:"window"`
			Addr         string  `json:"addr"`
			Matched      bool    `json:"matched"`
			Best         string  `json:"best"`
			BestSim      float64 `json:"best_sim"`
			Observations uint64  `json:"observations"`
		} `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scored); err != nil {
		t.Fatal(err)
	}
	if scored.Records != len(val.Records) {
		t.Fatalf("score consumed %d records, want %d", scored.Records, len(val.Records))
	}
	last := make(map[string]int)
	for i, v := range scored.Verdicts {
		last[v.Addr] = i
	}
	if len(last) != len(want) {
		t.Fatalf("batch path scored %d senders, live path %d", len(last), len(want))
	}
	for addr, w := range want {
		i, ok := last[addr]
		if !ok {
			t.Fatalf("batch path has no verdict for %s", addr)
		}
		v := scored.Verdicts[i]
		if v.Window != w.window || v.Matched != w.matched || v.Best != w.best ||
			v.BestSim != w.sim || v.Observations != w.obs {
			t.Fatalf("batch verdict for %s: got %+v, want %+v", addr, v, w)
		}
	}
}

// TestCheckpointOverAPI pins acceptance criterion (c): a checkpoint
// saved through the API is loadable with LoadReferencesChain, the load
// endpoint hot-swaps it into a cold site, and a trainer-owned site
// refuses loads.
func TestCheckpointOverAPI(t *testing.T) {
	t.Parallel()
	db, _ := testRefs(t, testTrace(t))
	cfg := db.Config()
	path := filepath.Join(t.TempDir(), "refs.ckpt")

	warm := NewSite("warm", SiteOptions{Window: testWindow, CheckpointPath: path})
	warmEng, err := dot11fp.NewEngine(cfg, db.Compile(), dot11fp.EngineOptions{Window: testWindow, Sink: warm.Sink(nil)})
	if err != nil {
		t.Fatal(err)
	}
	warm.Attach(warmEng, nil, nil, cmdutil.References{DB: db})

	cold := NewSite("cold", SiteOptions{Window: testWindow, CheckpointPath: path})
	empty := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	coldEng, err := dot11fp.NewEngine(cfg, empty.Compile(), dot11fp.EngineOptions{Window: testWindow, Sink: cold.Sink(nil)})
	if err != nil {
		t.Fatal(err)
	}
	cold.Attach(coldEng, nil, nil, cmdutil.References{DB: empty})

	_, ts := serveSites(t, Options{}, warm, cold)

	// Save over the API.
	var saved struct {
		Refs int `json:"refs"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/sites/warm/checkpoint", "", &saved); code != http.StatusOK {
		t.Fatalf("checkpoint save: status %d", code)
	}
	if saved.Refs != db.Len() {
		t.Fatalf("save reported %d refs, want %d", saved.Refs, db.Len())
	}

	// The file is a first-class generation-chain checkpoint.
	loaded, gen, err := cmdutil.LoadReferencesChain(path, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 || loaded.Len() != db.Len() {
		t.Fatalf("LoadReferencesChain: gen %d refs %d, want gen 0 refs %d", gen, loaded.Len(), db.Len())
	}

	// The load endpoint hot-swaps the references into the cold site.
	var load struct {
		Refs       int `json:"refs"`
		Generation int `json:"generation"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/sites/cold/checkpoint/load", "", &load); code != http.StatusOK {
		t.Fatalf("checkpoint load: status %d", code)
	}
	if load.Refs != db.Len() || load.Generation != 0 {
		t.Fatalf("load reported %+v, want %d refs at generation 0", load, db.Len())
	}
	var refs struct {
		Refs []string `json:"refs"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/sites/cold/references", &refs); code != http.StatusOK {
		t.Fatalf("references after load: status %d", code)
	}
	if len(refs.Refs) != db.Len() {
		t.Fatalf("cold site serves %d references after load, want %d", len(refs.Refs), db.Len())
	}

	// A trainer-owned site refuses: the trainer is the source of truth.
	gated := NewSite("gated", SiteOptions{Window: testWindow, CheckpointPath: path})
	trainer := dot11fp.NewTrainer(cfg, dot11fp.MeasureCosine, dot11fp.TrainerOptions{})
	gatedEng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
		Window: testWindow, Sink: gated.Sink(nil), Trainer: trainer,
	})
	if err != nil {
		t.Fatal(err)
	}
	gated.Attach(gatedEng, trainer, nil, cmdutil.References{})
	reg := NewRegistry()
	if err := reg.Add(gated); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(reg, Options{}).Handler())
	defer ts2.Close()
	if code := postJSON(t, ts2.URL+"/api/v1/sites/gated/checkpoint/load", "", nil); code != http.StatusConflict {
		t.Fatalf("trainer-owned load: status %d, want 409", code)
	}
	gatedEng.Close()
	warmEng.Close()
	coldEng.Close()
}

// TestTwoSitesIsolated pins acceptance criterion (d): two sites in one
// registry share nothing — verdicts, references, feeds and metric rows
// are all per-site.
func TestTwoSitesIsolated(t *testing.T) {
	t.Parallel()
	db, val := testRefs(t, testTrace(t))
	cfg := db.Config()

	siteA := NewSite("alpha", SiteOptions{Window: testWindow})
	engA, err := dot11fp.NewEngine(cfg, db.Compile(), dot11fp.EngineOptions{Window: testWindow, Sink: siteA.Sink(nil)})
	if err != nil {
		t.Fatal(err)
	}
	siteA.Attach(engA, nil, nil, cmdutil.References{DB: db})

	siteB := NewSite("beta", SiteOptions{Window: testWindow})
	emptyDB := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	engB, err := dot11fp.NewEngine(cfg, emptyDB.Compile(), dot11fp.EngineOptions{Window: testWindow, Sink: siteB.Sink(nil)})
	if err != nil {
		t.Fatal(err)
	}
	siteB.Attach(engB, nil, nil, cmdutil.References{DB: emptyDB})

	_, ts := serveSites(t, Options{}, siteA, siteB)

	// Watch beta's feed while alpha's engine runs: nothing may cross.
	subB := siteB.Feed().Subscribe()
	defer subB.Close()

	eng := engA
	eng.PushTrace(val)
	eng.Close()
	engB.Close()

	var sites struct {
		Sites []SiteSnapshot `json:"sites"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/sites", &sites); code != http.StatusOK {
		t.Fatalf("sites listing: status %d", code)
	}
	if len(sites.Sites) != 2 || sites.Sites[0].Site != "alpha" || sites.Sites[1].Site != "beta" {
		t.Fatalf("sites listing: %+v", sites.Sites)
	}
	if len(sites.Sites[0].Params) != 1 || sites.Sites[0].Params[0] != "iat" {
		t.Fatalf("alpha params %v, want [iat]", sites.Sites[0].Params)
	}
	if sites.Sites[0].Stats.Frames == 0 || sites.Sites[1].Stats.Frames != 0 {
		t.Fatalf("frame counts leaked across sites: alpha %d, beta %d",
			sites.Sites[0].Stats.Frames, sites.Sites[1].Stats.Frames)
	}
	if sites.Sites[0].Refs != db.Len() || sites.Sites[1].Refs != 0 {
		t.Fatalf("reference counts leaked: alpha %d, beta %d", sites.Sites[0].Refs, sites.Sites[1].Refs)
	}

	// Alpha has verdicts; beta has none, and alpha's senders 404 there.
	var sendersA, sendersB struct {
		Senders []SenderVerdict `json:"senders"`
	}
	getJSON(t, ts.URL+"/api/v1/sites/alpha/senders", &sendersA)
	getJSON(t, ts.URL+"/api/v1/sites/beta/senders", &sendersB)
	if len(sendersA.Senders) == 0 {
		t.Fatal("alpha recorded no verdicts")
	}
	if len(sendersB.Senders) != 0 {
		t.Fatalf("beta recorded %d verdicts without traffic", len(sendersB.Senders))
	}
	addr := sendersA.Senders[0].Addr
	if code := getJSON(t, ts.URL+"/api/v1/sites/beta/senders/"+addr, nil); code != http.StatusNotFound {
		t.Fatalf("alpha's sender on beta: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/sites/nosuch/senders", nil); code != http.StatusNotFound {
		t.Fatalf("unknown site: status %d, want 404", code)
	}

	// Beta's feed saw none of alpha's events.
	subB.Close()
	if n := len(subB.C); n != 0 {
		t.Fatalf("beta's feed buffered %d frames from alpha's run", n)
	}

	// Metrics carry both sites as separate label rows.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	frames := fmt.Sprintf(`dot11fp_frames_total{site="alpha"} %d`, len(val.Records))
	if !strings.Contains(text, frames) {
		t.Fatalf("metrics missing %q", frames)
	}
	if !strings.Contains(text, `dot11fp_frames_total{site="beta"} 0`) {
		t.Fatal("metrics missing beta's zero frame row")
	}
	if !strings.Contains(text, fmt.Sprintf(`dot11fp_refs{site="alpha"} %d`, db.Len())) ||
		!strings.Contains(text, `dot11fp_refs{site="beta"} 0`) {
		t.Fatal("metrics reference gauges not per-site")
	}
	// Index gauges are emitted per site from the engines' Stats.Index.
	if !strings.Contains(text, `dot11fp_index_enabled{site="alpha"}`) ||
		!strings.Contains(text, `dot11fp_index_enabled{site="beta"}`) {
		t.Fatal("metrics missing per-site index gauges")
	}
}

// TestEnrollConfirmOverAPI drives the whole confirm-over-the-wire loop:
// a cold-start trainer gated on the site's EnrollGate, verdicts posted
// over HTTP — an approved sender enrolls, a rejected one never does,
// everyone else stays pending and visible as offers.
func TestEnrollConfirmOverAPI(t *testing.T) {
	t.Parallel()
	tr := testTrace(t)
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)

	// Probe run: auto-enrollment discovers which senders complete the
	// horizon on this trace.
	probe := dot11fp.NewTrainer(cfg, dot11fp.MeasureCosine, dot11fp.TrainerOptions{})
	probeEng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{Window: testWindow, Trainer: probe})
	if err != nil {
		t.Fatal(err)
	}
	probeEng.PushTrace(tr)
	probeEng.Close()
	devices := probe.Database().Devices()
	if len(devices) < 3 {
		t.Fatalf("probe enrolled only %d senders, need 3", len(devices))
	}
	approve, reject := devices[0], devices[1]

	// Gated run: same trace, every promotion waits on the HTTP verdict.
	site := NewSite("gate", SiteOptions{Window: testWindow})
	trainer := dot11fp.NewTrainer(cfg, dot11fp.MeasureCosine, dot11fp.TrainerOptions{
		Policy: dot11fp.EnrollConfirm, Decide: site.Gate().Decide,
	})
	eng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
		Window: testWindow, Sink: site.Sink(nil), Trainer: trainer,
	})
	if err != nil {
		t.Fatal(err)
	}
	site.Attach(eng, trainer, nil, cmdutil.References{})
	_, ts := serveSites(t, Options{}, site)

	// Verdicts may be posted before the sender completes its horizon —
	// the gate holds them until the trainer asks.
	if code := postJSON(t, ts.URL+"/api/v1/sites/gate/enroll/"+approve.String(), `{"decision":"approve"}`, nil); code != http.StatusAccepted {
		t.Fatalf("approve: status %d, want 202", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/sites/gate/enroll/"+reject.String(), `{"decision":"reject"}`, nil); code != http.StatusAccepted {
		t.Fatalf("reject: status %d, want 202", code)
	}
	// A second verdict for a sender still pending one is a conflict.
	if code := postJSON(t, ts.URL+"/api/v1/sites/gate/enroll/"+approve.String(), `{"decision":"reject"}`, nil); code != http.StatusConflict {
		t.Fatalf("duplicate verdict: status %d, want 409", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/sites/gate/enroll/"+approve.String(), `{"decision":"maybe"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad decision: status %d, want 400", code)
	}

	eng.PushTrace(tr)
	eng.Close()

	db := trainer.Database()
	if db.Signature(approve) == nil {
		t.Fatalf("approved sender %s never enrolled", approve)
	}
	if db.Signature(reject) != nil {
		t.Fatalf("rejected sender %s enrolled anyway", reject)
	}
	if st := trainer.Stats(); st.Rejected != 1 {
		t.Fatalf("trainer rejected %d senders, want exactly the posted one", st.Rejected)
	}

	// Everyone else was deferred: still pending, visible as offers
	// awaiting a verdict.
	var enroll struct {
		Pending []enrollEntry `json:"pending"`
		Offers  []enrollEntry `json:"offers"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/sites/gate/enroll", &enroll); code != http.StatusOK {
		t.Fatalf("enroll listing: status %d", code)
	}
	if len(enroll.Offers) == 0 {
		t.Fatal("no unanswered offers listed")
	}
	for _, o := range enroll.Offers {
		if o.Addr == approve.String() || o.Addr == reject.String() {
			t.Fatalf("answered sender %s still listed as an offer", o.Addr)
		}
	}
}

// TestPushZeroAllocsWithServerAttached pins that serving does not tax
// the hot path: with the site's taps in the sink chain and a live SSE
// subscriber, pushing a frame inside an open window still allocates
// nothing — the server only acts at window close.
func TestPushZeroAllocsWithServerAttached(t *testing.T) {
	cfg := dot11fp.DefaultConfig(dot11fp.ParamInterArrival)
	db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
	site := NewSite("hot", SiteOptions{Window: 24 * time.Hour})
	eng, err := dot11fp.NewEngine(cfg, db.Compile(), dot11fp.EngineOptions{
		Window: 24 * time.Hour, Sink: site.Sink(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	site.Attach(eng, nil, nil, cmdutil.References{DB: db})
	sub := site.Feed().Subscribe()
	defer sub.Close()

	ap := dot11.LocalAddr(1000)
	recs := make([]dot11fp.Record, 240)
	for i := range recs {
		recs[i] = dot11fp.Record{
			T: (int64(i) * 250_000) % 3_600_000_000, Sender: dot11.LocalAddr(uint64(1 + i%3)),
			Receiver: ap, Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		}
	}
	// Establish the open window's senders and histograms.
	for i := range recs {
		eng.Push(&recs[i])
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range recs {
			eng.Push(&recs[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("push with server attached allocated %v times per sweep, want 0", allocs)
	}
	eng.Close()
}

// discardResponse is a reusable ResponseWriter that keeps only the
// status, so a handler's own allocations can be counted.
type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// TestReferenceDetailCopiesNothing pins the cost of a reference-detail
// query on a trainer-attached site: it reads the one device's counts in
// place, so a request allocates the same with 10 trainer-held
// references as with 200 — no copy of the reference set per request.
func TestReferenceDetailCopiesNothing(t *testing.T) {
	cfg := dot11fp.DefaultConfig(dot11fp.ParamSize)
	cfg.MinObservations = 1
	allocs := func(refs int) float64 {
		tr := &dot11fp.Trace{}
		for i := range refs * 4 {
			tr.Records = append(tr.Records, dot11fp.Record{
				T: int64(i) * 1000, Sender: dot11.LocalAddr(uint64(1 + i%refs)),
				Class: dot11.ClassData, Size: 100 + 10*(i%refs), RateMbps: 24, FCSOK: true,
			})
		}
		db := dot11fp.NewDatabase(cfg, dot11fp.MeasureCosine)
		if err := db.Train(tr); err != nil {
			t.Fatal(err)
		}
		if db.Len() != refs {
			t.Fatalf("trained %d references, want %d", db.Len(), refs)
		}
		trainer := dot11fp.NewTrainerFrom(db, dot11fp.TrainerOptions{})
		site := NewSite("s", SiteOptions{Window: testWindow})
		eng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
			Window: testWindow, Sink: site.Sink(nil), Trainer: trainer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		site.Attach(eng, trainer, nil, cmdutil.References{})
		reg := NewRegistry()
		if err := reg.Add(site); err != nil {
			t.Fatal(err)
		}
		h := New(reg, Options{}).Handler()
		req := httptest.NewRequest(http.MethodGet, "/api/v1/sites/s/references/"+dot11.LocalAddr(1).String(), nil)
		w := &discardResponse{header: http.Header{}}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("%d references: status %d", refs, w.code)
		}
		return testing.AllocsPerRun(50, func() { h.ServeHTTP(w, req) })
	}
	if few, many := allocs(10), allocs(200); few != many {
		t.Fatalf("a reference-detail request allocates %v times with 10 trainer references, %v with 200", few, many)
	}
}

// TestLoadedReferenceUpdateRace runs a loaded checkpoint's references
// through the one mutator and every reader at once: a trainer seeded
// from the loaded database merges each window into its copies of them
// (Update, which densifies those copies), an engine matches the loaded
// database's own compiled snapshot, and the API serves both sites'
// reference detail and checkpoints the trainer's copies throughout,
// while the loaded database saves itself. The copies share the loaded
// cell form, so under -race this shows the shared cells are never
// written; after the run the loaded database still re-saves to its
// checkpoint bytes.
func TestLoadedReferenceUpdateRace(t *testing.T) {
	db, val := testRefs(t, testTrace(t))
	var ckpt bytes.Buffer
	if err := db.SaveBinary(&ckpt); err != nil {
		t.Fatal(err)
	}
	loaded, err := dot11fp.LoadBinaryDatabase(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := loaded.Config()

	live := NewSite("live", SiteOptions{Window: testWindow, CheckpointPath: filepath.Join(t.TempDir(), "live.fpdb")})
	trainer := dot11fp.NewTrainerFrom(loaded, dot11fp.TrainerOptions{Update: true})
	liveEng, err := dot11fp.NewEngine(cfg, nil, dot11fp.EngineOptions{
		Window: testWindow, Sink: live.Sink(nil), Trainer: trainer,
	})
	if err != nil {
		t.Fatal(err)
	}
	live.Attach(liveEng, trainer, nil, cmdutil.References{})
	static := NewSite("static", SiteOptions{Window: testWindow})
	staticEng, err := dot11fp.NewEngine(cfg, loaded.Compile(), dot11fp.EngineOptions{
		Window: testWindow, Sink: static.Sink(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	static.Attach(staticEng, nil, nil, cmdutil.References{DB: loaded})
	_, ts := serveSites(t, Options{}, live, static)

	done := make(chan struct{})
	var readers, pushers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			// A checkpoint saves the trainer's copies, whose cells the
			// loaded references share until the trainer densifies them.
			resp, err := http.Post(ts.URL+"/api/v1/sites/live/checkpoint", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("live checkpoint: status %d", resp.StatusCode)
				return
			}
			for _, addr := range loaded.Devices() {
				for _, site := range []string{"live", "static"} {
					resp, err := http.Get(ts.URL + "/api/v1/sites/" + site + "/references/" + addr.String())
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s reference %v: status %d", site, addr, resp.StatusCode)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}
	}()
	// The loaded references' own saves read the shared cells with no
	// lock in common with the trainer.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			if err := loaded.SaveBinary(io.Discard); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for _, eng := range []*dot11fp.Engine{liveEng, staticEng} {
		pushers.Add(1)
		go func() {
			defer pushers.Done()
			for i := range val.Records {
				eng.Push(&val.Records[i])
			}
			eng.Close()
		}()
	}
	pushers.Wait()
	close(done)
	readers.Wait()

	if st := trainer.Stats(); st.Updated == 0 {
		t.Fatalf("the trainer merged no window into a loaded reference: %+v", st)
	}
	addr := loaded.Devices()[0]
	var detail struct {
		Params map[string]uint64 `json:"observations_by_param"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/sites/static/references/"+addr.String(), &detail); code != http.StatusOK {
		t.Fatalf("static reference detail: status %d", code)
	}
	if got, want := detail.Params[cfg.Param.ShortName()], loaded.Signature(addr).Observations(); got != want {
		t.Fatalf("static reference detail reports %d observations, want %d", got, want)
	}
	var resaved bytes.Buffer
	if err := loaded.SaveBinary(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), ckpt.Bytes()) {
		t.Fatal("the loaded references changed while the trainer updated its copies")
	}
}
