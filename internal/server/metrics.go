package server

import (
	"fmt"
	"io"
	"strings"
)

// metricFamily is one Prometheus family: a # HELP/# TYPE header
// followed by one sample per (site, extra-label) combination, emitted
// together so the exposition groups families across sites — the format
// requires all samples of a family to be contiguous.
type metricFamily struct {
	name, typ, help string
	samples         []sample
}

type sample struct {
	labels string // rendered `site="x"` or `site="x",source="0"`
	value  float64
}

func (m *metricFamily) add(labels string, v float64) {
	m.samples = append(m.samples, sample{labels: labels, value: v})
}

// WriteMetrics renders every site's canonical snapshot in the
// Prometheus text exposition format (version 0.0.4) — the same
// SiteSnapshot the JSON API serves, flattened to families, so the two
// surfaces cannot disagree. Gauges carry instantaneous values
// (live_senders, refs, feed_clients…); counters carry the engines'
// monotonic totals.
func WriteMetrics(w io.Writer, snaps []SiteSnapshot) {
	fams := []*metricFamily{
		{name: "dot11fp_frames_total", typ: "counter", help: "Frames pushed into the engine."},
		{name: "dot11fp_dropped_frames_total", typ: "counter", help: "Frames dropped by backpressure."},
		{name: "dot11fp_windows_closed_total", typ: "counter", help: "Detection windows closed."},
		{name: "dot11fp_live_senders", typ: "gauge", help: "Senders currently tracked in the open window."},
		{name: "dot11fp_candidates_total", typ: "counter", help: "Candidates that cleared the minimum-observation rule."},
		{name: "dot11fp_matched_total", typ: "counter", help: "Candidates matched to a reference."},
		{name: "dot11fp_unknown_total", typ: "counter", help: "Candidates matched to no reference."},
		{name: "dot11fp_dropped_senders_total", typ: "counter", help: "Senders dropped below the minimum-observation rule or evicted."},
		{name: "dot11fp_evicted_total", typ: "counter", help: "Senders evicted by bounded-state limits."},
		{name: "dot11fp_frames_per_second", typ: "gauge", help: "Ingest rate over the engine's lifetime."},
		{name: "dot11fp_refs", typ: "gauge", help: "References currently installed in the engine."},
		{name: "dot11fp_degraded", typ: "gauge", help: "1 when supervision absorbed unrecoverable faults (recovered panics or a permanently down source)."},
		{name: "dot11fp_health_panics_total", typ: "counter", help: "Recovered panics by component."},
		{name: "dot11fp_health_stalled_shards", typ: "gauge", help: "Shards the watchdog currently considers stalled."},
		{name: "dot11fp_trainer_refs", typ: "gauge", help: "Trainer's reference count."},
		{name: "dot11fp_trainer_pending", typ: "gauge", help: "Senders accumulating toward the enrollment horizon."},
		{name: "dot11fp_trainer_enrolled_total", typ: "counter", help: "Senders promoted into the references."},
		{name: "dot11fp_trainer_updated_total", typ: "counter", help: "Reference refreshes under Update mode."},
		{name: "dot11fp_trainer_swaps_total", typ: "counter", help: "Reference databases hot-swapped into the engine."},
		{name: "dot11fp_trainer_denied_total", typ: "counter", help: "Candidate observations skipped for denied senders."},
		{name: "dot11fp_trainer_rejected_total", typ: "counter", help: "Confirm-rejected senders."},
		{name: "dot11fp_trainer_evicted_pending_total", typ: "counter", help: "Pending senders evicted by MaxPending."},
		{name: "dot11fp_source_records_total", typ: "counter", help: "Records delivered by the capture source."},
		{name: "dot11fp_source_decode_errors_total", typ: "counter", help: "Undecodable frames skipped by the source."},
		{name: "dot11fp_source_failures_total", typ: "counter", help: "Source errors plus failed reopen attempts."},
		{name: "dot11fp_source_reopens_total", typ: "counter", help: "Successful source reopens."},
		{name: "dot11fp_source_down", typ: "gauge", help: "1 while the source is failed (reopening or retired)."},
		{name: "dot11fp_source_permanent_down", typ: "gauge", help: "1 when the source exhausted its reopen attempts."},
		{name: "dot11fp_index_enabled", typ: "gauge", help: "1 when the compiled match index backs the site's matching."},
		{name: "dot11fp_index_entries", typ: "gauge", help: "Non-zero (reference, bin) cells in the match index."},
		{name: "dot11fp_index_postings", typ: "gauge", help: "Inverted-index entries in the match index."},
		{name: "dot11fp_index_bytes", typ: "gauge", help: "Approximate match-index memory footprint."},
		{name: "dot11fp_index_dense_bytes", typ: "gauge", help: "Memory dense row matrices would occupy; the ratio to dot11fp_index_bytes is the realised sparsity."},
		{name: "dot11fp_feed_clients", typ: "gauge", help: "Connected SSE feed subscribers."},
		{name: "dot11fp_feed_events_total", typ: "counter", help: "Events published to the SSE feed."},
		{name: "dot11fp_feed_dropped_total", typ: "counter", help: "SSE frames dropped into full client buffers."},
	}
	byName := make(map[string]*metricFamily, len(fams))
	for _, f := range fams {
		byName[f.name] = f
	}
	add := func(name, labels string, v float64) { byName[name].add(labels, v) }
	b01 := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	for _, s := range snaps {
		site := fmt.Sprintf(`site=%q`, s.Site)
		add("dot11fp_frames_total", site, float64(s.Stats.Frames))
		add("dot11fp_dropped_frames_total", site, float64(s.Stats.DroppedFrames))
		add("dot11fp_windows_closed_total", site, float64(s.Stats.WindowsClosed))
		add("dot11fp_live_senders", site, float64(s.Stats.LiveSenders))
		add("dot11fp_candidates_total", site, float64(s.Stats.Candidates))
		add("dot11fp_matched_total", site, float64(s.Stats.Matched))
		add("dot11fp_unknown_total", site, float64(s.Stats.Unknown))
		add("dot11fp_dropped_senders_total", site, float64(s.Stats.Dropped))
		add("dot11fp_evicted_total", site, float64(s.Stats.Evicted))
		add("dot11fp_frames_per_second", site, s.Stats.FramesPerSec)
		add("dot11fp_refs", site, float64(s.Refs))
		add("dot11fp_degraded", site, b01(s.Degraded))
		for _, c := range []struct {
			component string
			n         uint64
		}{
			{"shard", s.Health.ShardPanics},
			{"merger", s.Health.MergerPanics},
			{"trainer", s.Health.TrainerPanics},
			{"engine", s.Health.EnginePanics},
		} {
			add("dot11fp_health_panics_total", site+fmt.Sprintf(`,component=%q`, c.component), float64(c.n))
		}
		add("dot11fp_health_stalled_shards", site, float64(len(s.Health.StalledShards)))
		if t := s.Trainer; t != nil {
			add("dot11fp_trainer_refs", site, float64(t.Refs))
			add("dot11fp_trainer_pending", site, float64(t.Pending))
			add("dot11fp_trainer_enrolled_total", site, float64(t.Enrolled))
			add("dot11fp_trainer_updated_total", site, float64(t.Updated))
			add("dot11fp_trainer_swaps_total", site, float64(t.Swaps))
			add("dot11fp_trainer_denied_total", site, float64(t.Denied))
			add("dot11fp_trainer_rejected_total", site, float64(t.Rejected))
			add("dot11fp_trainer_evicted_pending_total", site, float64(t.EvictedPending))
		}
		for i, src := range s.Sources {
			labels := site + fmt.Sprintf(`,source="%d"`, i)
			add("dot11fp_source_records_total", labels, float64(src.Records))
			add("dot11fp_source_decode_errors_total", labels, float64(src.DecodeErrors))
			add("dot11fp_source_failures_total", labels, float64(src.Failures))
			add("dot11fp_source_reopens_total", labels, float64(src.Reopens))
			add("dot11fp_source_down", labels, b01(src.Down))
			add("dot11fp_source_permanent_down", labels, b01(src.Permanent))
		}
		add("dot11fp_index_enabled", site, b01(s.Stats.Index.Enabled))
		add("dot11fp_index_entries", site, float64(s.Stats.Index.Entries))
		add("dot11fp_index_postings", site, float64(s.Stats.Index.Postings))
		add("dot11fp_index_bytes", site, float64(s.Stats.Index.IndexBytes))
		add("dot11fp_index_dense_bytes", site, float64(s.Stats.Index.DenseBytes))
		add("dot11fp_feed_clients", site, float64(s.Feed.Clients))
		add("dot11fp_feed_events_total", site, float64(s.Feed.Events))
		add("dot11fp_feed_dropped_total", site, float64(s.Feed.Dropped))
	}

	var sb strings.Builder
	for _, f := range fams {
		if len(f.samples) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, smp := range f.samples {
			fmt.Fprintf(&sb, "%s{%s} %v\n", f.name, smp.labels, smp.value)
		}
	}
	io.WriteString(w, sb.String())
}
