package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/gpu"
	"zatel/internal/metrics"
	"zatel/internal/obs"
	"zatel/internal/rt"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// fullRes is fullsim_compare's frame: the same 128×128×1 frames as
// predict_cold, so both workloads score against the same truth.
const fullRes = coldRes

// strategies are all three selection strategies the accuracy set covers.
var strategies = []sampling.Distribution{sampling.Uniform, sampling.Stratified, sampling.RankedSet}

// fullFrame is one frame of fullsim_compare with its strategies in run
// order.
type fullFrame struct {
	Scene      string
	Cfg        config.Config
	Strategies []sampling.Distribution
}

// fullFrames is the seeded frame list: every scene × config, each with all
// three strategies, in an order drawn from seed.
func fullFrames(seed uint64) []fullFrame {
	rng := rand.New(rand.NewPCG(seed, 0xf011))
	var frames []fullFrame
	for _, s := range scene.Names() {
		for _, c := range configs {
			st := append([]sampling.Distribution(nil), strategies...)
			rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
			frames = append(frames, fullFrame{s, c, st})
		}
	}
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	return frames
}

// fullSim runs the ground truth: the whole frame on the full GPU.
func fullSim(ctx context.Context, f fullFrame) (metrics.Report, error) {
	wl, err := rt.CachedWorkloadContext(ctx, f.Scene, fullRes, fullRes, 1)
	if err != nil {
		return metrics.Report{}, err
	}
	return gpu.Run(gpu.Job{Cfg: f.Cfg, Traces: wl.Traces})
}

func runFullsimCompare(cfg runConfig) (*outcome, error) {
	frozen, err := loadFrozen()
	if err != nil {
		return nil, err
	}
	return fullsimCompare(cfg, frozen, fullFrames(cfg.Seed))
}

// fullsimCompare is the workload body with the expected full-simulation
// reports and the frames as parameters, so a test can perturb one expected
// value on a short frame list and see the run fail.
func fullsimCompare(cfg runConfig, frozen frozenTable, frames []fullFrame) (*outcome, error) {
	logf := func(f string, a ...any) { fmt.Fprintf(os.Stderr, "zbench: "+f+"\n", a...) }
	ctx := context.Background()
	var scenes []string
	for _, f := range frames {
		if !slices.Contains(scenes, f.Scene) {
			scenes = append(scenes, f.Scene)
		}
	}

	// Set-up builds every frame's functional trace, so rt does no work in
	// the timed region. Every timed call then starts from a collected heap
	// whose free pages went back to the OS, so no call pays for another's
	// garbage and none finds pages mapped or not depending on when the
	// runtime last scavenged.
	var buildS []float64
	setupS, err := repeatSetup(3, func() error {
		resetCaches()
		buildS = buildS[:0]
		for _, s := range scenes {
			start := time.Now()
			if _, err := rt.CachedWorkloadContext(ctx, s, fullRes, fullRes, 1); err != nil {
				return err
			}
			buildS = append(buildS, time.Since(start).Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out := &outcome{Metrics: map[string]float64{"setup_s": setupS}}
	traceMiB := float64(store.Default().Snapshot().Bytes) / (1 << 20)

	var (
		acc                 accuracy
		layers              layerTimes
		groups              groupStats
		counts              simCounts
		lat, speedups       []float64
		traced, untraced    []float64
		simS, allocs        []float64
		simInstr            uint64
		ok                  int
		busy                float64 // seconds inside timed calls
		firstPass           = map[string]*core.Result{}
		tr                  = obs.NewTracer()
		tctx                = obs.WithTracer(ctx, tr)
		mem0, mem1          runtime.MemStats
		passes, predictions int
	)
	hw := startMeasuring()
	passStart := time.Now()
	for {
		passes++
		for fi, f := range frames {
			out.Attempted++
			c := ctx
			var sp *obs.Span
			if cfg.Trace {
				c, sp = obs.StartSpan(tctx, "zbench.fullsim")
				sp.SetAttr("frame", frameKey(f.Scene, f.Cfg, fullRes))
			}
			debug.FreeOSMemory()
			if cfg.Trace {
				runtime.ReadMemStats(&mem0)
			}
			start := time.Now()
			ref, err := fullSim(c, f)
			d := time.Since(start)
			busy += d.Seconds()
			if cfg.Trace {
				runtime.ReadMemStats(&mem1)
				allocs = append(allocs, float64(mem1.Mallocs-mem0.Mallocs))
			}
			sp.End()
			if err != nil {
				out.fail("%s full simulation: %v", f.Scene, err)
				continue
			}
			want, err := frozen.truth(f.Scene, f.Cfg, fullRes)
			if err == nil {
				err = checkReport(want, ref)
			}
			if err != nil {
				out.fail("%s: %v", frameKey(f.Scene, f.Cfg, fullRes), err)
			}
			if passes == 1 {
				counts.add(ref)
				simS = append(simS, d.Seconds())
				simInstr += ref.Instructions
			}

			for si, dist := range f.Strategies {
				key := fmt.Sprintf("%s/%s", frameKey(f.Scene, f.Cfg, fullRes), dist)
				// A traced run makes each prediction twice, traced and
				// untraced in alternating order, for the overhead.
				runs := []bool{false}
				if cfg.Trace {
					runs = []bool{(fi+si)%2 == 0, (fi+si)%2 != 0}
				}
				for _, withTrace := range runs {
					out.Attempted++
					predictions++
					c := ctx
					var sp *obs.Span
					if withTrace {
						c, sp = obs.StartSpan(tctx, "zbench.predict")
						sp.SetAttr("op", key)
					}
					debug.FreeOSMemory()
					res, pd, err := timedPredict(c, predictOptions(f.Scene, f.Cfg, fullRes, dist, cfg.Workers))
					sp.End()
					if err != nil {
						out.fail("%s: %v", key, err)
						continue
					}
					ok++
					busy += pd
					lat = append(lat, pd)
					if withTrace {
						traced = append(traced, pd)
					} else if cfg.Trace {
						untraced = append(untraced, pd)
					}
					if prev := firstPass[key]; prev != nil {
						if !samePrediction(prev.Predicted, res.Predicted) {
							out.fail("%s: repeated prediction differs", key)
						}
						continue
					}
					firstPass[key] = res
					acc.addResult(res, ref)
					groups.add(res)
					speedups = append(speedups, float64(d)/float64(res.SimWallTime))
				}
			}
		}
		if cfg.Trace || !anotherPass(time.Since(passStart), passes, cfg.Seconds) {
			break
		}
	}
	elapsed := time.Since(passStart).Seconds()
	out.Metrics["peak_heap_mib"] = hw.Stop()
	logf("%d passes, %d full simulations, %d predictions in %.1f s", passes, out.Attempted-predictions, predictions, elapsed)
	resetCaches()

	if !cfg.Trace {
		latencyMetrics(out.Metrics, lat, 75, logf)
		out.Metrics["ops_per_s"] = float64(ok) / busy
		acc.fill(out.Metrics)
		return out, nil
	}
	for _, ps := range predictsFromTracer(tr.Snapshot()) {
		layers.add(ps)
	}
	layers.fill(out.Metrics, logf)
	groups.fill(out.Metrics)
	counts.fill(out.Metrics)
	acc.fillIntervals(out.Metrics)
	m := out.Metrics
	m["rt.trace_build_s"] = mean(buildS)
	m["rt.trace_mib"] = traceMiB
	m["gpu.fullsim_run_s"] = mean(simS)
	var simTotal float64
	for _, s := range simS {
		simTotal += s
	}
	if simInstr > 0 {
		m["gpu.fullsim_minstr_per_s"] = float64(simInstr) / simTotal / 1e6
		m["gpu.ns_per_instr"] = simTotal * 1e9 / float64(simInstr)
	}
	m["gpu.allocs_per_run"] = mean(allocs)
	m["core.speedup_x"] = geomean(speedups)
	m["obs.trace_overhead_pct"] = overheadPct(traced, untraced)
	writeSpans(cfg, "fullsim_compare", tr.WriteChromeTrace)
	return out, nil
}
