package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dot11fp/internal/scenario"
	"dot11fp/internal/server"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // reversed: percentile sorts
	}
	if v, q := percentile(xs, 0.99); v != 990 || q != 0.99 {
		t.Errorf("p99 of 1..1000 = %v at q %v, want 990 at 0.99 (10 samples above)", v, q)
	}
	if v, q := percentile(xs, 0.5); v != 500 || q != 0.5 {
		t.Errorf("p50 of 1..1000 = %v at q %v, want 500 at 0.5", v, q)
	}
	// 20 samples cannot support p99: the highest rank with 10 samples
	// above is the 10th, p50.
	small := make([]float64, 20)
	for i := range small {
		small[i] = float64(i + 1)
	}
	if v, q := percentile(small, 0.99); v != 10 || q != 0.5 {
		t.Errorf("p99 of 1..20 = %v at q %v, want 10 at 0.5", v, q)
	}
	if v, q := percentile(nil, 0.5); v != 0 || q != 0 {
		t.Errorf("percentile of nothing = %v at q %v, want 0 at 0", v, q)
	}
}

func TestGroupedPercentile(t *testing.T) {
	pass := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	// Four groups of 1000: one slow stretch sets its own group's p99,
	// not the run's.
	passes := [][]float64{pass(1, 600), pass(1, 600), pass(1, 1000), pass(9, 1000), pass(1, 700), pass(1, 500)}
	if v, q, groups := groupedPercentile(passes, 0.99); v != 1 || q != 0.99 || groups != 4 {
		t.Errorf("grouped p99 = %v at q %v over %d groups, want 1 at 0.99 over 4", v, q, groups)
	}
	// Too few samples for one full group: everything pools into one.
	if _, q, groups := groupedPercentile([][]float64{pass(1, 300), pass(2, 300)}, 0.99); groups != 1 || q == 0.99 {
		t.Errorf("600 samples: q %v over %d groups, want a lower quantile over 1 group", q, groups)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {nil, 0}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// smallOffice is an office-replay input small enough for a test: the
// training prefix plus two monitored minutes of six stations.
func smallOffice(t *testing.T) *runner {
	t.Helper()
	in, err := singleCapture(scenario.Office("test", 3, officeRef+2*time.Minute, 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	return &runner{w: workloads["office-replay"], in: in, epoch: time.Now()}
}

// TestDigestDeterministic replays one input twice in-process and checks
// that the serial reference agrees with itself: the same digest, window
// closes and frame count.
func TestDigestDeterministic(t *testing.T) {
	a, b := smallOffice(t), smallOffice(t)
	for _, r := range []*runner{a, b} {
		if err := r.replayReference(false); err != nil {
			t.Fatal(err)
		}
	}
	if a.ref.digest != b.ref.digest || !slices.Equal(a.ref.closeAt, b.ref.closeAt) || a.ref.frames != b.ref.frames {
		t.Fatalf("replays disagree: digest %+v vs %+v, closes %v vs %v, frames %d vs %d",
			a.ref.digest, b.ref.digest, a.ref.closeAt, b.ref.closeAt, a.ref.frames, b.ref.frames)
	}
	if a.ref.digest.n == 0 {
		t.Fatal("no verdicts")
	}
}

// TestPassMatchesReference runs one measured pass and checks that the
// gate accepts it, and that one changed score bit changes the digest.
func TestPassMatchesReference(t *testing.T) {
	r := smallOffice(t)
	if err := r.replayReference(false); err != nil {
		t.Fatal(err)
	}
	p := r.pass(nil)
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.col.digest != r.ref.digest || p.frames != r.ref.frames {
		t.Fatalf("pass digest %+v over %d frames, reference %+v over %d", p.col.digest, p.frames, r.ref.digest, r.ref.frames)
	}
	if len(p.col.lat) != r.ref.digest.n {
		t.Errorf("%d latencies for %d verdicts", len(p.col.lat), r.ref.digest.n)
	}
	d1, d2 := newDigest(), newDigest()
	d1.add(verdict{window: 1, sim: 0.5})
	d2.add(verdict{window: 1, sim: 0.5000000000000001})
	if d1 == d2 {
		t.Error("digests of verdicts one score bit apart are equal")
	}
}

// TestFeedVerdictsRoundTrip publishes the reference events through a
// server fanout and checks that the verdicts decoded from the SSE frames
// digest exactly like the engine's events.
func TestFeedVerdictsRoundTrip(t *testing.T) {
	r := smallOffice(t)
	if err := r.replayReference(true); err != nil {
		t.Fatal(err)
	}
	fan := server.NewFanout(len(r.ref.events) + 1)
	sub := fan.Subscribe()
	defer sub.Close()
	for _, ev := range r.ref.events {
		fan.Publish(ev)
	}
	d := newDigest()
	var p feedParser
	for len(sub.C) > 0 {
		frame := <-sub.C
		for _, line := range bytes.SplitAfter(frame, []byte("\n")) {
			v, ok, err := p.line(line)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				d.add(v)
			}
		}
	}
	if d != r.ref.digest {
		t.Fatalf("feed digest %+v, engine digest %+v", d, r.ref.digest)
	}
}

// TestOutputSchema checks the last line of the report against the
// benchmark contract: exactly correct, attempted, failed and metrics,
// each metric a value with a unit, report-only metrics left out.
func TestOutputSchema(t *testing.T) {
	res := newResult("test")
	res.add("frames_per_s", 1.5, 3, "")
	res.info("gen_s", 2, 1, "")
	res.attempted = 10
	var buf bytes.Buffer
	if err := res.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(got))
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if m, ok := metrics["frames_per_s"]; len(metrics) != 1 || !ok || m.Value == nil || *m.Value != 1.5 || m.Unit != "1/s" {
		t.Fatalf("metrics %s, want only frames_per_s 1.5 1/s", got["metrics"])
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the runs put on
// the JSON line are the ones BENCHMARK.json declares, with its units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []def
		reported []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, layerMetrics}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark reports %d", len(c.declared), len(c.reported))
			continue
		}
		for i, d := range c.declared {
			if m := c.reported[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, reported %s %s", i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
}
