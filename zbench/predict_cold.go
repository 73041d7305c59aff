package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/obs"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// coldRes is predict_cold's frame: 128×128 at 1 sample per pixel.
const coldRes = 128

// coldOp is one cold prediction of predict_cold's op list.
type coldOp struct {
	Scene string
	Cfg   config.Config
	Dist  sampling.Distribution
}

func (o coldOp) String() string { return fmt.Sprintf("%s/%s/%s", o.Scene, o.Cfg.Name, o.Dist) }

// coldOps is the seeded op list: every scene × config × {uniform,
// stratified} once, in an order drawn from seed. The pipeline's own
// sampling seed stays at its default, so a given frame and strategy always
// yield the same prediction and the accuracy metrics do not move with seed.
func coldOps(seed uint64) []coldOp {
	var ops []coldOp
	for _, s := range scene.Names() {
		for _, c := range configs {
			for _, d := range []sampling.Distribution{sampling.Uniform, sampling.Stratified} {
				ops = append(ops, coldOp{s, c, d})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// predictOptions are the options every benchmark prediction uses: the
// paper's defaults, a fresh artifact store, and the step-6 pool bounded by
// the load limit.
func predictOptions(sceneName string, cfg config.Config, res int, dist sampling.Distribution, workers int) core.Options {
	return core.Options{
		Config: cfg, Scene: sceneName, Width: res, Height: res, SPP: 1,
		Dist: dist, Parallel: true, Workers: workers, Store: store.New(0),
	}
}

// coldPredict runs one prediction from the cold state: no artifact in any
// store, no pooled simulator, and a collected heap, as a fresh CLI process
// would start. Only the PredictContext call is timed.
func coldPredict(ctx context.Context, op coldOp, workers int) (*core.Result, float64, error) {
	resetCaches()
	return timedPredict(ctx, predictOptions(op.Scene, op.Cfg, coldRes, op.Dist, workers))
}

// timedPredict times one PredictContext call; a degraded prediction counts
// as a failure.
func timedPredict(ctx context.Context, opts core.Options) (*core.Result, float64, error) {
	start := time.Now()
	res, err := core.PredictContext(ctx, opts)
	d := time.Since(start).Seconds()
	if err == nil && res.Degraded != nil {
		err = fmt.Errorf("degraded prediction: %s", res.Degraded)
	}
	return res, d, err
}

func runPredictCold(cfg runConfig) (*outcome, error) {
	frozen, err := loadFrozen()
	if err != nil {
		return nil, err
	}
	logf := func(f string, a ...any) { fmt.Fprintf(os.Stderr, "zbench: "+f+"\n", a...) }
	ctx := context.Background()
	ops := coldOps(cfg.Seed)

	// Set-up: load the scene library and make one cold warm-up prediction so
	// code and runtime are faulted in before timing; the first repetition
	// also pays scene construction, which the median leaves out.
	warm := coldOp{"WKND", config.MobileSoC(), sampling.Uniform}
	setupS, err := repeatSetup(5, func() error {
		resetCaches()
		for _, n := range scene.Names() {
			if _, err := scene.ByName(n); err != nil {
				return err
			}
		}
		_, _, err := coldPredict(ctx, warm, cfg.Workers)
		resetCaches()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	out := &outcome{Metrics: map[string]float64{"setup_s": setupS}}
	first := make([]*core.Result, len(ops))
	var acc accuracy
	// check compares a repeat of op i with its first prediction, and scores
	// the first one.
	check := func(i int, res *core.Result) {
		if first[i] == nil {
			first[i] = res
			truth, err := frozen.truth(ops[i].Scene, ops[i].Cfg, coldRes)
			if err != nil {
				out.fail("%v", err)
				return
			}
			acc.addResult(res, truth)
			return
		}
		if !samePrediction(first[i].Predicted, res.Predicted) {
			out.fail("%s: repeated prediction differs: %v vs %v", ops[i], res.Predicted, first[i].Predicted)
		}
	}

	if cfg.Trace {
		return tracedPredictCold(ctx, cfg, ops, out, &acc, check, logf)
	}

	var lat []float64
	hw := startMeasuring()
	start := time.Now()
	for pass := 1; ; pass++ {
		for i, op := range ops {
			out.Attempted++
			res, d, err := coldPredict(ctx, op, cfg.Workers)
			if err != nil {
				out.fail("%s: %v", op, err)
				continue
			}
			lat = append(lat, d)
			check(i, res)
		}
		if !anotherPass(time.Since(start), pass, cfg.Seconds) {
			logf("%d passes of %d ops", pass, len(ops))
			break
		}
	}
	out.Metrics["peak_heap_mib"] = hw.Stop()
	resetCaches()
	latencyMetrics(out.Metrics, lat, 75, logf)
	out.Metrics["ops_per_s"] = float64(len(lat)) / sum(lat)
	acc.fill(out.Metrics)
	return out, nil
}

// tracedPredictCold makes one pass in which every op runs twice, traced and
// untraced in alternating order: the traced runs give the per-layer split,
// the pairs give the tracing overhead and one more determinism check.
func tracedPredictCold(ctx context.Context, cfg runConfig, ops []coldOp, out *outcome,
	acc *accuracy, check func(int, *core.Result), logf func(string, ...any)) (*outcome, error) {

	tr := obs.NewTracer()
	tctx := obs.WithTracer(ctx, tr)
	var layers layerTimes
	var groups groupStats
	var traced, untraced, traceBytes []float64
	for i, op := range ops {
		for k := 0; k < 2; k++ {
			withTrace := (i+k)%2 == 0
			out.Attempted++
			c := ctx
			var sp *obs.Span
			if withTrace {
				c, sp = obs.StartSpan(tctx, "zbench.cold_predict")
				sp.SetAttr("op", op.String())
			}
			res, d, err := coldPredict(c, op, cfg.Workers)
			sp.End()
			if err != nil {
				out.fail("%s: %v", op, err)
				continue
			}
			check(i, res)
			if withTrace {
				traced = append(traced, d)
				groups.add(res)
				traceBytes = append(traceBytes, float64(store.Default().Snapshot().Bytes)/(1<<20))
			} else {
				untraced = append(untraced, d)
			}
		}
	}
	resetCaches()
	for _, ps := range predictsFromTracer(tr.Snapshot()) {
		layers.add(ps)
	}
	layers.fill(out.Metrics, logf)
	groups.fill(out.Metrics)
	acc.fillIntervals(out.Metrics)
	out.Metrics["rt.trace_mib"] = mean(traceBytes)
	out.Metrics["obs.trace_overhead_pct"] = overheadPct(traced, untraced)
	writeSpans(cfg, "predict_cold", tr.WriteChromeTrace)
	return out, nil
}

// overheadPct is how much longer the traced operations took in total than
// their untraced twins, in percent.
func overheadPct(traced, untraced []float64) float64 {
	var t, u float64
	for _, v := range traced {
		t += v
	}
	for _, v := range untraced {
		u += v
	}
	if u == 0 {
		return 0
	}
	return 100 * (t/u - 1)
}
