package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"zatel/internal/combine"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
)

// frozenJSON holds the full-frame simulator reports of every scene × config
// at the benchmark's frame sizes (1 spp), WallTime zeroed. fullsim_compare
// checks its fresh full simulations against the 128×128 entries on every
// run, so a change that alters simulated output reads as wrong, not as
// faster; predict_cold and serve_fleet score their predictions against the
// entries as ground truth. Regenerate with ZBENCH_UPDATE_FROZEN=1 go test.
//
//go:embed frozen.json
var frozenJSON []byte

// frozenTable maps frameKey → full-frame report.
type frozenTable map[string]metrics.Report

func loadFrozen() (frozenTable, error) {
	var t frozenTable
	if err := json.Unmarshal(frozenJSON, &t); err != nil {
		return nil, fmt.Errorf("frozen.json: %w", err)
	}
	return t, nil
}

func frameKey(sceneName string, cfg config.Config, res int) string {
	return fmt.Sprintf("%s/%s/%d", sceneName, cfg.Name, res)
}

// truth returns the frozen full-frame report of a frame.
func (t frozenTable) truth(sceneName string, cfg config.Config, res int) (metrics.Report, error) {
	rep, ok := t[frameKey(sceneName, cfg, res)]
	if !ok {
		return metrics.Report{}, fmt.Errorf("frozen.json has no entry %s", frameKey(sceneName, cfg, res))
	}
	return rep, nil
}

// checkReport fails when any simulated count or Table-I input of got
// differs from want. Host wall time is not an output and is ignored.
func checkReport(want, got metrics.Report) error {
	got.WallTime, want.WallTime = 0, 0
	if got != want {
		return fmt.Errorf("simulated report changed:\n got  %+v\n want %+v", got, want)
	}
	return nil
}

// configs are the two Table II targets every workload covers.
var configs = []config.Config{config.MobileSoC(), config.RTX2060()}

// accuracy accumulates prediction errors against full simulation.
type accuracy struct {
	ipc, cycles, all []float64
	// Replicated predictions: IPC relative half-widths, and how many of
	// their per-metric intervals contain the full-simulation value.
	halfWidths        []float64
	covered, interval int
}

// add scores one prediction's Table-I values against its frame's truth.
func (a *accuracy) add(pred map[metrics.Metric]float64, truth metrics.Report) {
	for _, m := range metrics.All() {
		e := metrics.AbsErr(pred[m], truth.Value(m))
		if math.IsInf(e, 0) || math.IsNaN(e) {
			continue
		}
		a.all = append(a.all, e)
		switch m {
		case metrics.IPC:
			a.ipc = append(a.ipc, e)
		case metrics.SimCycles:
			a.cycles = append(a.cycles, e)
		}
	}
}

// addIntervals records a replicated prediction's intervals against truth.
func (a *accuracy) addIntervals(ivs combine.GroupIntervals, truth metrics.Report) {
	if ivs == nil {
		return
	}
	if iv, ok := ivs[metrics.IPC]; ok && iv.Mean != 0 {
		a.halfWidths = append(a.halfWidths, iv.HalfWidth()/math.Abs(iv.Mean))
	}
	for m, iv := range ivs {
		v := truth.Value(m)
		a.interval++
		if iv.Low <= v && v <= iv.High {
			a.covered++
		}
	}
}

// addResult scores a core prediction, intervals included.
func (a *accuracy) addResult(res *core.Result, truth metrics.Report) {
	a.add(res.Predicted, truth)
	a.addIntervals(res.Intervals, truth)
}

// fill writes the mean absolute errors, in percent.
func (a *accuracy) fill(m map[string]float64) {
	m["ipc_err_pct"] = 100 * mean(a.ipc)
	m["cycles_err_pct"] = 100 * mean(a.cycles)
	m["metric_err_pct"] = 100 * mean(a.all)
}

// fillIntervals writes the per-layer interval metrics.
func (a *accuracy) fillIntervals(m map[string]float64) {
	m["extrapolate.ci_rel_halfwidth"] = mean(a.halfWidths)
	if a.interval > 0 {
		m["extrapolate.ci_coverage"] = float64(a.covered) / float64(a.interval)
	}
}

// samePrediction reports whether two predictions carry bit-identical
// Table-I values.
func samePrediction(a, b map[metrics.Metric]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for m, v := range a {
		if w, ok := b[m]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
