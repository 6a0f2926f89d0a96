// Package eval implements the paper's evaluation methodology (§IV-B,
// §V): split a trace into a training prefix and a validation remainder,
// build the reference database, extract candidate signatures per
// 5-minute detection window, and score the two tests —
//
//   - the similarity test: sweep the threshold T over the returned-set
//     rule sim ≥ T, producing the TPR-vs-FPR similarity curve and its
//     area under the curve (Table II, Figure 3);
//   - the identification test: arg-max matching with an acceptance
//     threshold, reporting the identification ratio at fixed false
//     positive rates (Table III).
//
// Definitions follow the paper exactly: TPR is the fraction of candidate
// devices known to the reference database whose returned set contains
// the true device; FPR (similarity) is the fraction of returned
// reference devices that do not match the candidate; FPR
// (identification) is the fraction of candidates mistakenly identified
// as another device.
package eval

import (
	"fmt"
	"sort"
	"time"

	"dot11fp/internal/capture"
	"dot11fp/internal/core"
	"dot11fp/internal/dot11"
	"dot11fp/internal/engine"
	"dot11fp/internal/stats"
)

// Spec parameterises one experiment run.
type Spec struct {
	// RefDuration is the training prefix length (paper: 1 h or 20 min).
	RefDuration time.Duration
	// Window is the detection window (paper: 5 min).
	Window time.Duration
	// Config is the signature extraction configuration.
	Config core.Config
	// Measure is the histogram similarity (default cosine).
	Measure core.Measure
	// Workers caps the candidate-matching fan-out. Zero selects
	// GOMAXPROCS; 1 forces the serial path. Results are identical for
	// every worker count: each candidate's state is computed
	// independently and stored at its own index, so scheduling cannot
	// reorder or alter anything downstream.
	Workers int
}

// CurvePoint is one threshold sample of the similarity curve.
type CurvePoint struct {
	Threshold float64
	TPR       float64
	FPR       float64
}

// Result summarises one experiment.
type Result struct {
	TraceName  string
	Param      core.Param
	RefDevices int
	// Candidates is the number of (device, window) matching instances;
	// KnownCandidates are those whose device is in the reference DB.
	Candidates      int
	KnownCandidates int
	Curve           []CurvePoint
	AUC             float64
	// IdentAtFPR maps an FPR budget (e.g. 0.01, 0.1) to the best
	// identification ratio achievable within it.
	IdentAtFPR map[float64]float64
}

// candidate is the per-instance matching state reused across thresholds.
type candidate struct {
	known     bool
	trueSim   float64 // similarity to the true reference (if known)
	simsDesc  []float64
	bestSim   float64
	bestRight bool
}

// Run executes the experiment on a trace.
func Run(tr *capture.Trace, spec Spec) (*Result, error) {
	if spec.Window <= 0 {
		spec.Window = core.DefaultWindow
	}
	if spec.RefDuration <= 0 {
		return nil, fmt.Errorf("eval: reference duration must be positive")
	}
	train, valid := core.Split(tr, spec.RefDuration)
	db := core.NewDatabase(spec.Config, spec.Measure)
	if err := db.Train(train); err != nil {
		return nil, fmt.Errorf("eval: training: %w", err)
	}

	// The candidate loop is a thin adapter over the streaming engine:
	// the validation trace is replayed through the push path, and each
	// window's candidates arrive as events carrying their similarity
	// vectors (one extraction and matching code path with live
	// monitoring; scores are bit-identical to matching the batch
	// CandidatesIn output). The similarity test needs every score, so
	// the engine runs with FullVector; both event kinds carry it, so the
	// engine's acceptance threshold is irrelevant here.
	var states []candidate
	collect := engine.SinkFunc(func(ev engine.Event) {
		switch ev := ev.(type) {
		case engine.CandidateMatched:
			states = append(states, candidateState(ev.Scores, ev.Addr))
		case engine.UnknownDevice:
			states = append(states, candidateState(ev.Scores, ev.Addr))
		}
	})
	eng, err := engine.New(db.Config(), db.Compile(), engine.Options{
		Window:  spec.Window,
		Workers: spec.Workers,
		TopK:    engine.FullVector,
		Sink:    collect,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	eng.PushTrace(valid)
	eng.Close()

	res := &Result{
		TraceName:  tr.Name,
		Param:      spec.Config.Param,
		RefDevices: db.Len(),
		Candidates: len(states),
		IdentAtFPR: make(map[float64]float64),
	}
	for i := range states {
		if states[i].known {
			res.KnownCandidates++
		}
	}

	res.Curve = similarityCurve(states)
	res.AUC = auc(res.Curve)
	for _, budget := range []float64{0.01, 0.1} {
		res.IdentAtFPR[budget] = identAt(states, budget)
	}
	return res, nil
}

// candidateState derives one candidate's matching state from its
// similarity vector. scores may alias a reusable scratch buffer; the
// state copies what it keeps.
func candidateState(scores []core.Score, addr dot11.Addr) candidate {
	st := candidate{}
	st.simsDesc = make([]float64, 0, len(scores))
	best := core.Score{Sim: -1}
	for _, sc := range scores {
		st.simsDesc = append(st.simsDesc, sc.Sim)
		if sc.Sim > best.Sim {
			best = sc
		}
		if sc.Addr == addr {
			st.known = true
			st.trueSim = sc.Sim
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(st.simsDesc)))
	st.bestSim = best.Sim
	st.bestRight = st.known && best.Addr == addr
	return st
}

// thresholdGrid is the sweep used for both tests: fine steps plus an
// above-one anchor where nothing is returned.
func thresholdGrid() []float64 {
	out := make([]float64, 0, 205)
	for t := 1.02; t >= -0.0005; t -= 0.005 {
		out = append(out, t)
	}
	return out
}

// similarityCurve sweeps T and accumulates the paper's TPR/FPR
// definitions for the similarity test.
func similarityCurve(states []candidate) []CurvePoint {
	var curve []CurvePoint
	for _, t := range thresholdGrid() {
		var tprNum, known int
		var returned, wrong int
		for i := range states {
			st := &states[i]
			n := countAtLeast(st.simsDesc, t)
			returned += n
			w := n
			if st.known {
				known++
				if st.trueSim >= t {
					tprNum++
					w--
				}
			}
			wrong += w
		}
		p := CurvePoint{Threshold: t}
		if known > 0 {
			p.TPR = float64(tprNum) / float64(known)
		}
		if returned > 0 {
			p.FPR = float64(wrong) / float64(returned)
		}
		curve = append(curve, p)
	}
	return curve
}

// countAtLeast counts entries ≥ t in a descending-sorted slice.
func countAtLeast(desc []float64, t float64) int {
	lo, hi := 0, len(desc)
	for lo < hi {
		mid := (lo + hi) / 2
		if desc[mid] >= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// auc integrates TPR over FPR, anchoring the curve at the origin (the
// empty-return threshold).
func auc(curve []CurvePoint) float64 {
	xs := make([]float64, 0, len(curve)+1)
	ys := make([]float64, 0, len(curve)+1)
	xs = append(xs, 0)
	ys = append(ys, 0)
	for _, p := range curve {
		xs = append(xs, p.FPR)
		ys = append(ys, p.TPR)
	}
	return stats.TrapezoidArea(xs, ys)
}

// identAt returns the best identification ratio achievable with
// identification FPR within the budget, sweeping the acceptance
// threshold on the winning similarity.
func identAt(states []candidate, budget float64) float64 {
	total := len(states)
	if total == 0 {
		return 0
	}
	best := 0.0
	for _, t := range thresholdGrid() {
		var correct, wrong, known int
		for i := range states {
			st := &states[i]
			if st.known {
				known++
			}
			if st.bestSim < t {
				continue // not identified at this threshold
			}
			if st.bestRight {
				correct++
			} else {
				wrong++
			}
		}
		if known == 0 {
			continue
		}
		fpr := float64(wrong) / float64(total)
		if fpr <= budget {
			if ratio := float64(correct) / float64(known); ratio > best {
				best = ratio
			}
		}
	}
	return best
}
