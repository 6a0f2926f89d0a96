package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"dot11fp"
)

// Options parameterises a Server.
type Options struct {
	// Pprof also mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose more than metrics do.
	Pprof bool
}

// Server is the HTTP face over a Registry of sites. Build it with New,
// mount Handler on any listener — or use Start for the daemons' serve
// loop with graceful shutdown.
type Server struct {
	reg  *Registry
	opts Options
	mux  *http.ServeMux

	// closed releases long-lived handlers (the SSE feeds) at shutdown;
	// http.Server.Shutdown alone would wait on them forever.
	closed    chan struct{}
	closeOnce sync.Once

	srv *http.Server
	ln  net.Listener
}

// New builds the server and its routes over reg.
func New(reg *Registry, opts Options) *Server {
	s := &Server{reg: reg, opts: opts, mux: http.NewServeMux(), closed: make(chan struct{})}
	s.mux.HandleFunc("GET /api/v1/sites", s.handleSites)
	s.mux.HandleFunc("GET /api/v1/sites/{site}", s.withSite(s.handleSite))
	s.mux.HandleFunc("GET /api/v1/sites/{site}/senders", s.withSite(s.handleSenders))
	s.mux.HandleFunc("GET /api/v1/sites/{site}/senders/{mac}", s.withSite(s.handleSender))
	s.mux.HandleFunc("GET /api/v1/sites/{site}/references", s.withSite(s.handleReferences))
	s.mux.HandleFunc("GET /api/v1/sites/{site}/references/{mac}", s.withSite(s.handleReference))
	s.mux.HandleFunc("GET /api/v1/sites/{site}/enroll", s.withSite(s.handleEnrollList))
	s.mux.HandleFunc("POST /api/v1/sites/{site}/enroll/{mac}", s.withSite(s.handleEnrollResolve))
	s.mux.HandleFunc("POST /api/v1/sites/{site}/score", s.withSite(s.handleScore))
	s.mux.HandleFunc("POST /api/v1/sites/{site}/checkpoint", s.withSite(s.handleCheckpointSave))
	s.mux.HandleFunc("POST /api/v1/sites/{site}/checkpoint/load", s.withSite(s.handleCheckpointLoad))
	s.mux.HandleFunc("GET /api/v1/sites/{site}/feed", s.withSite(s.handleFeed))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the route tree, for mounting on a listener of the
// caller's choosing (tests use httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr and serves in the background, returning the
// bound address (useful with ":0"). Stop with Shutdown.
func Start(addr string, reg *Registry, opts Options) (*Server, error) {
	s := New(reg, opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops serving gracefully: long-lived feeds are released,
// in-flight requests get until ctx to finish. Safe without Start (it
// then only releases feeds handled through Handler).
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.closed) })
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// withSite resolves the {site} path value and 404s unknown names.
func (s *Server) withSite(h func(http.ResponseWriter, *http.Request, *Site)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		site := s.reg.Get(r.PathValue("site"))
		if site == nil {
			writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown site %q", r.PathValue("site")))
			return
		}
		h(w, r, site)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	sites := s.reg.List()
	snaps := make([]SiteSnapshot, 0, len(sites))
	for _, site := range sites {
		snap, err := site.Snapshot()
		if err != nil {
			snap = SiteSnapshot{Site: site.Name()}
		}
		snaps = append(snaps, snap)
	}
	writeJSON(w, http.StatusOK, struct {
		Sites []SiteSnapshot `json:"sites"`
	}{snaps})
}

func (s *Server) handleSite(w http.ResponseWriter, r *http.Request, site *Site) {
	snap, err := site.Snapshot()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleSenders(w http.ResponseWriter, r *http.Request, site *Site) {
	window, have := site.rec.window()
	writeJSON(w, http.StatusOK, struct {
		Window     int             `json:"window"`
		HaveWindow bool            `json:"have_window"`
		Senders    []SenderVerdict `json:"senders"`
	}{window, have, site.rec.list()})
}

func (s *Server) handleSender(w http.ResponseWriter, r *http.Request, site *Site) {
	addr, err := dot11fp.ParseAddr(r.PathValue("mac"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	v, ok := site.rec.get(addr)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("sender %s has no recorded verdict", addr))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleReferences(w http.ResponseWriter, r *http.Request, site *Site) {
	eng, err := site.engine()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var devices []dot11fp.Addr
	switch {
	case eng.EnsembleDB() != nil:
		devices = eng.EnsembleDB().Devices()
	case eng.DB() != nil:
		devices = eng.DB().Devices()
	}
	refs := make([]string, len(devices))
	for i, d := range devices {
		refs[i] = d.String()
	}
	writeJSON(w, http.StatusOK, struct {
		Refs []string `json:"refs"`
	}{refs})
}

// referenceDetail is one reference's wire view: accumulated
// observations per member parameter.
type referenceDetail struct {
	Addr   string            `json:"addr"`
	Params map[string]uint64 `json:"observations_by_param"`
}

func (s *Server) handleReference(w http.ResponseWriter, r *http.Request, site *Site) {
	addr, err := dot11fp.ParseAddr(r.PathValue("mac"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	site.mu.RLock()
	refsFn, trainer := site.refsFn, site.trainer
	site.mu.RUnlock()
	if refsFn == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Sprintf("site %q has no engine attached", site.Name()))
		return
	}
	var buf [dot11fp.MaxEnsembleMembers]uint64
	obs := buf[:0]
	var cfgs []dot11fp.Config
	if trainer != nil {
		// The trainer's references are read in place under its lock, so
		// a one-device query copies none of them. Its Configs is nil for
		// a single-parameter trainer; fall back to the sole Config.
		if cfgs = trainer.Configs(); len(cfgs) == 0 {
			cfgs = []dot11fp.Config{trainer.Config()}
		}
		obs = trainer.Observations(obs, addr)
	} else {
		refs := refsFn()
		var sigs [dot11fp.MaxEnsembleMembers]*dot11fp.Signature
		switch cfgs = refs.Configs(); {
		case refs.Ens != nil:
			for _, sig := range refs.Ens.SignaturesInto(sigs[:0], addr) {
				obs = append(obs, sig.Observations())
			}
		case refs.DB != nil:
			if sig := refs.DB.Signature(addr); sig != nil {
				obs = append(obs, sig.Observations())
			}
		}
	}
	if len(obs) == 0 {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no reference for %s", addr))
		return
	}
	detail := referenceDetail{Addr: addr.String(), Params: make(map[string]uint64, len(obs))}
	for i, cfg := range cfgs {
		detail.Params[cfg.Param.ShortName()] = obs[i]
	}
	writeJSON(w, http.StatusOK, detail)
}

// enrollEntry is a pending sender's wire view.
type enrollEntry struct {
	Addr         string `json:"addr"`
	Windows      int    `json:"windows"`
	Observations uint64 `json:"observations"`
}

func enrollEntries(ps []dot11fp.PendingEnrollment) []enrollEntry {
	out := make([]enrollEntry, len(ps))
	for i, p := range ps {
		out[i] = enrollEntry{Addr: p.Addr.String(), Windows: p.Windows, Observations: p.Observations}
	}
	return out
}

func (s *Server) handleEnrollList(w http.ResponseWriter, r *http.Request, site *Site) {
	site.mu.RLock()
	trainer := site.trainer
	site.mu.RUnlock()
	if trainer == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("site %q does not enroll online", site.Name()))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		// Pending accumulates toward the horizon; Offers completed it
		// and wait on an operator verdict (confirm mode only).
		Pending []enrollEntry `json:"pending"`
		Offers  []enrollEntry `json:"offers"`
	}{enrollEntries(trainer.PendingList()), enrollEntries(site.gate.Offers())})
}

func (s *Server) handleEnrollResolve(w http.ResponseWriter, r *http.Request, site *Site) {
	site.mu.RLock()
	trainer := site.trainer
	site.mu.RUnlock()
	if trainer == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("site %q does not enroll online", site.Name()))
		return
	}
	addr, err := dot11fp.ParseAddr(r.PathValue("mac"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	var body struct {
		Decision string `json:"decision"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	var approve bool
	switch body.Decision {
	case "approve":
		approve = true
	case "reject":
	default:
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("decision %q: want approve or reject", body.Decision))
		return
	}
	if err := site.gate.Resolve(addr, approve); err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	// 202: the verdict applies at the sender's next completed window,
	// not synchronously.
	writeJSON(w, http.StatusAccepted, struct {
		Addr     string `json:"addr"`
		Decision string `json:"decision"`
	}{addr.String(), body.Decision})
}

// scoreVerdict is one batch-scoring verdict row.
type scoreVerdict struct {
	Window       int     `json:"window"`
	Addr         string  `json:"addr"`
	Matched      bool    `json:"matched"`
	Best         string  `json:"best,omitempty"`
	BestSim      float64 `json:"best_sim"`
	Observations uint64  `json:"observations"`
}

// handleScore scores an uploaded pcap against the site's current
// references in a one-shot serial engine — the batch path, never the
// live stream. The live engine is untouched; the one-shot engine runs
// the same window/threshold configuration, so its verdicts are exactly
// what the live path would have produced for the same records.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request, site *Site) {
	eng, err := site.engine()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	tr, err := dot11fp.ReadPcap(http.MaxBytesReader(w, r.Body, site.opts.MaxBatchBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad pcap: %v", err))
		return
	}
	var verdicts []scoreVerdict
	sink := dot11fp.SinkFunc(func(ev dot11fp.Event) {
		switch ev := ev.(type) {
		case dot11fp.CandidateMatched:
			verdicts = append(verdicts, scoreVerdict{
				Window: ev.Window, Addr: ev.Addr.String(), Matched: true,
				Best: ev.Best.Addr.String(), BestSim: ev.Best.Sim,
				Observations: ev.Observations(),
			})
		case dot11fp.UnknownDevice:
			v := scoreVerdict{Window: ev.Window, Addr: ev.Addr.String(), Observations: ev.Observations()}
			if ev.HasBest {
				v.Best, v.BestSim = ev.Best.Addr.String(), ev.Best.Sim
			}
			verdicts = append(verdicts, v)
		}
	})
	opts := dot11fp.EngineOptions{Window: site.opts.Window, Threshold: site.opts.Threshold, Sink: sink}
	var batch *dot11fp.Engine
	if edb, cfgs := eng.EnsembleDB(), eng.Configs(); edb != nil || len(cfgs) > 1 {
		batch, err = dot11fp.NewEnsembleEngine(cfgs, edb, opts)
	} else {
		batch, err = dot11fp.NewEngine(eng.Config(), eng.DB(), opts)
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	batch.PushTrace(tr)
	batch.Close()
	writeJSON(w, http.StatusOK, struct {
		Records  int            `json:"records"`
		Verdicts []scoreVerdict `json:"verdicts"`
	}{len(tr.Records), verdicts})
}

func (s *Server) handleCheckpointSave(w http.ResponseWriter, r *http.Request, site *Site) {
	n, err := site.SaveCheckpoint()
	if err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Refs int `json:"refs"`
	}{n})
}

func (s *Server) handleCheckpointLoad(w http.ResponseWriter, r *http.Request, site *Site) {
	n, gen, err := site.LoadCheckpoint()
	if err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Refs       int `json:"refs"`
		Generation int `json:"generation"`
	}{n, gen})
}

// handleFeed streams the site's events as server-sent events. The
// subscription's buffer decouples the client from the engine: a slow
// reader loses frames (counted) instead of backpressuring the
// pipeline. The handler exits on client disconnect or server shutdown.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request, site *Site) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub := site.feed.Subscribe()
	defer sub.Close()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case frame, ok := <-sub.C:
			if !ok {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.closed:
			// Graceful, not lossy: flush the frames already buffered,
			// then release the stream.
			for {
				select {
				case frame, ok := <-sub.C:
					if !ok {
						return
					}
					if _, err := w.Write(frame); err != nil {
						return
					}
					fl.Flush()
				default:
					return
				}
			}
		}
	}
}

func (s *Server) snapshots() []SiteSnapshot {
	sites := s.reg.List()
	snaps := make([]SiteSnapshot, 0, len(sites))
	for _, site := range sites {
		if snap, err := site.Snapshot(); err == nil {
			snaps = append(snaps, snap)
		}
	}
	return snaps
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.snapshots())
}

// handleHealthz serves orchestrator liveness: 200 when every attached
// site is clean, 503 when any is degraded (the same cmdutil.Degraded
// verdict behind fingerprintd's exit-3 policy).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type siteHealth struct {
		Site     string `json:"site"`
		Degraded bool   `json:"degraded"`
	}
	var sites []siteHealth
	degraded := false
	for _, snap := range s.snapshots() {
		sites = append(sites, siteHealth{Site: snap.Site, Degraded: snap.Degraded})
		degraded = degraded || snap.Degraded
	}
	code := http.StatusOK
	status := "ok"
	if degraded {
		code, status = http.StatusServiceUnavailable, "degraded"
	}
	writeJSON(w, code, struct {
		Status string       `json:"status"`
		Sites  []siteHealth `json:"sites"`
	}{status, sites})
}
