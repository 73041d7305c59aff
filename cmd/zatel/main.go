// Command zatel runs the Zatel prediction pipeline on a scene and, with
// -compare, evaluates it against the ground-truth full simulation.
//
// Usage:
//
//	zatel -scene PARK -config mobile -res 128 -spp 2 -compare
//	zatel -scene PARK -maxpercent 0.1           # the paper's 50x variant
//	zatel -scene BATH -division coarse -dist exptmp -percent 0.4
//	zatel -scene PARK -inject-errors 0.3 -attempts 3   # fault-injection soak
//	zatel -scene PARK -trace trace.json                # step-level span trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"zatel/internal/cli"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/sampling"
	"zatel/internal/scene"
)

func main() {
	var (
		sceneName  = flag.String("scene", "PARK", "scene name ("+strings.Join(scene.Names(), ", ")+")")
		cfgName    = flag.String("config", "mobile", "GPU configuration: mobile or rtx2060")
		res        = flag.Int("res", 128, "square frame resolution")
		spp        = flag.Int("spp", 2, "samples per pixel")
		division   = flag.String("division", "fine", "image-plane division: fine or coarse")
		dist       = flag.String("dist", "uniform", "pixel distribution: uniform, lintmp, exptmp, stratified or rankedset")
		sampl      = flag.String("sampling", "", "sampling strategy, an alias for -dist that reads better for the replicated strategies (stratified, rankedset); overrides -dist when set")
		percent    = flag.Float64("percent", 0, "fixed traced-pixel fraction in (0,1]; 0 uses Eq. 1")
		maxPercent = flag.Float64("maxpercent", 0, "cap on the Eq. 1 budget (0 = none)")
		k          = flag.Int("k", 0, "downscaling factor override (0 = gcd rule)")
		noDown     = flag.Bool("no-downscale", false, "disable GPU downscaling (K=1)")
		regression = flag.Bool("regression", false, "use exponential-regression extrapolation (20/30/40% runs)")
		compare    = flag.Bool("compare", false, "also run the full simulation and report errors and speedup")
		seed       = flag.Uint64("seed", 1, "selection randomness seed")
		parallel   = flag.Bool("parallel", false, "run the K group instances on the worker pool")
		workers    = flag.Int("workers", 0, "pool size with -parallel (0 = one per CPU core)")
	)
	common := cli.Register(flag.CommandLine)
	flag.Parse()

	var err error
	stopProfiles, err = common.Setup()
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	cfg, err := config.ByName(*cfgName)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{
		Config: cfg,
		Scene:  *sceneName,
		Width:  *res, Height: *res, SPP: *spp,
		K:                 *k,
		NoDownscale:       *noDown,
		FixedFraction:     *percent,
		MaxFraction:       *maxPercent,
		Regression:        *regression,
		Seed:              *seed,
		Parallel:          *parallel,
		Workers:           *workers,
		TargetCIHalfWidth: common.TargetCI,
		Sampling:          common.Sampling(),
		FT:                common.FT(),
	}
	if opts.Division, err = core.ParseDivision(*division); err != nil {
		fatal(err)
	}
	distName := *dist
	if *sampl != "" {
		distName = *sampl
	}
	opts.Dist, err = sampling.ParseDistribution(strings.ToLower(distName))
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the prediction: the pool drains its running
	// jobs, unstarted groups are skipped, and we exit 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, flushTrace := common.StartTrace(ctx, "cmd", "zatel", "scene", *sceneName, "config", cfg.Name)

	result, err := core.PredictContext(ctx, opts)
	if werr := flushTrace(); werr != nil {
		fatal(werr)
	}
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			stopProfiles()
			fmt.Fprintln(os.Stderr, "zatel: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Printf("zatel: %s on %s (%dx%d, %d spp), K=%d, %s division, %s distribution\n",
		*sceneName, cfg.Name, *res, *res, *spp, result.K, opts.Division, opts.Dist)
	for gi, g := range result.Groups {
		if g.Err != nil {
			fmt.Printf("  group %d: FAILED after %d attempt(s): %v\n", gi, g.Attempts, g.Err)
			continue
		}
		retries := ""
		if g.Attempts > 1 {
			retries = fmt.Sprintf(", %d attempts", g.Attempts)
		}
		reps := ""
		if g.Rounds > 0 {
			met := ""
			if common.TargetCI > 0 {
				met = ", target met"
				if !g.TargetMet {
					met = ", target unmet"
				}
			}
			reps = fmt.Sprintf(", %d replicates x %d round(s)%s", g.Replicates, g.Rounds, met)
		}
		fmt.Printf("  group %d: %d/%d pixels traced (%.1f%%), %d cycles, %s (queued %s%s%s)\n",
			gi, g.Selected, g.Pixels, 100*g.Fraction, g.Report.Cycles,
			g.WallTime.Round(1e6), g.QueueTime.Round(1e6), retries, reps)
	}
	if d := result.Degraded; d != nil {
		fmt.Printf("  %s\n", d)
	}
	fmt.Printf("preprocess %s, simulation wall %s (slowest instance), cpu %s (all instances)\n\n",
		result.PreprocessTime.Round(1e6), result.SimWallTime.Round(1e6),
		result.TotalCPUTime.Round(1e6))

	if !*compare {
		if result.Intervals != nil {
			printIntervals(result, opts.Sampling.Confidence)
			return
		}
		fmt.Printf("%-22s%16s\n", "Metric", "Predicted")
		for _, m := range metrics.All() {
			fmt.Printf("%-22s%16.4f\n", m, result.Predicted[m])
		}
		return
	}

	ref, err := core.Reference(cfg, *sceneName, *res, *res, *spp)
	if err != nil {
		fatal(err)
	}
	errs := result.Errors(ref)
	fmt.Printf("%-22s%16s%16s%12s\n", "Metric", "Predicted", "FullSim", "AbsErr")
	for _, m := range metrics.All() {
		fmt.Printf("%-22s%16.4f%16.4f%11.1f%%\n", m, result.Predicted[m], ref.Value(m), 100*errs[m])
	}
	if result.Degraded != nil {
		fmt.Printf("(errors measured against a degraded prediction: %s)\n", result.Degraded)
	}
	if result.Intervals != nil {
		fmt.Println()
		printIntervals(result, opts.Sampling.Confidence)
	}
	fmt.Printf("\nMAE %.1f%%   speedup %.1fx (full sim %s vs zatel %s)\n",
		100*metrics.MAE(errs, metrics.All()), result.Speedup(ref),
		ref.WallTime.Round(1e6), (result.PreprocessTime + result.SimWallTime).Round(1e6))
}

// printIntervals renders the replicated strategies' confidence intervals:
// the point prediction with its CI bounds and ± half-width per metric.
func printIntervals(result *core.Result, confFlag float64) {
	conf := confFlag
	if conf == 0 {
		conf = 0.95
	}
	reps := 0
	for _, iv := range result.Intervals {
		if reps == 0 || iv.Replicates < reps {
			reps = iv.Replicates
		}
	}
	fmt.Printf("%-22s%16s%16s%16s%12s\n", "Metric", "Predicted", "CI low", "CI high", "±half")
	for _, m := range metrics.All() {
		iv := result.Intervals[m]
		fmt.Printf("%-22s%16.4f%16.4f%16.4f%12.4f\n",
			m, result.Predicted[m], iv.Low, iv.High, iv.HalfWidth())
	}
	fmt.Printf("(%.0f%% confidence from %d replicate sub-draws per group)\n", 100*conf, reps)
}

// stopProfiles flushes the -cpuprofile/-memprofile outputs; fatal and the
// interrupt exit call it (idempotently) so profiles survive any exit.
var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "zatel:", err)
	os.Exit(1)
}
