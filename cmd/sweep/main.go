// Command sweep regenerates the paper's evaluation tables and figures.
// Each subcommand reproduces one experiment and prints the corresponding
// rows/series; "all" runs the full evaluation in order.
//
// Usage:
//
//	sweep [-res 256] [-spp 1] [-config rtx2060] [-reps 5] [-trace grid.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <experiment>
//
// Experiments: fig10 fig11 table3 fig13 fig14 fig15 fig16 fig17 fig18
// fig19 fig20 all
//
// Fault-injection flags (-inject-*) soak the experiment grids: failed
// cells render as ERR, degraded predictions are marked †, and SIGINT
// prints the partial tables before exiting 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"zatel/internal/cli"
	"zatel/internal/config"
	"zatel/internal/experiments"
	"zatel/internal/sampling"
	"zatel/internal/scene"
)

func main() {
	var (
		res     = flag.Int("res", 256, "square frame resolution")
		spp     = flag.Int("spp", 1, "samples per pixel")
		cfgName = flag.String("config", "rtx2060", "config for per-config sweeps (mobile or rtx2060)")
		reps    = flag.Int("reps", 5, "random-selection repetitions for table3")
		sampl   = flag.String("sampling", "", "sampling strategy for the grids: uniform, lintmp, exptmp, stratified or rankedset (empty = uniform; stratified/rankedset add ± error bars)")
		workers = flag.Int("workers", 0, "experiment-grid worker pool size (0 = one per CPU core, 1 = serial)")
	)
	common := cli.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
	}

	var err error
	stopProfiles, err = common.Setup()
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the grids; already-collected cells still render
	// (cancelled ones as ERR) before we exit 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -trace records one "point[i]" span per grid point, with the nested
	// pipeline step spans below each. flushTrace runs on every exit path so
	// an interrupted sweep still leaves a file.
	ctx, writeTrace := common.StartTrace(ctx, "cmd", "sweep", "experiment", flag.Arg(0))
	flushTrace := func() {
		if err := writeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: writing trace:", err)
		}
	}

	settings := experiments.Settings{
		Width: *res, Height: *res, SPP: *spp, Workers: *workers,
		Ctx:      ctx,
		TargetCI: common.TargetCI,
		Sampling: common.Sampling(),
		FT:       common.FT(),
	}
	settings.Dist, err = sampling.ParseDistribution(strings.ToLower(*sampl))
	if err != nil {
		fatal(err)
	}
	cfg, err := config.ByName(*cfgName)
	if err != nil {
		fatal(err)
	}

	which := strings.ToLower(flag.Arg(0))
	run := func(name string) {
		if err := runExperiment(name, settings, cfg, *reps); err != nil {
			flushTrace()
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
		if ctx.Err() != nil {
			flushTrace()
			stopProfiles()
			fmt.Fprintln(os.Stderr, "sweep: interrupted — partial results above")
			os.Exit(130)
		}
	}
	if which == "all" {
		for _, name := range []string{"fig10", "fig11", "table3", "fig13", "fig14",
			"fig15", "fig16", "fig17", "fig18", "fig19", "fig20"} {
			run(name)
		}
		flushTrace()
		stopProfiles()
		return
	}
	run(which)
	flushTrace()
	stopProfiles()
}

// stopProfiles flushes the -cpuprofile/-memprofile outputs; fatal and every
// explicit exit path call it (idempotently) so profiles survive any exit.
var stopProfiles = func() {}

// sweepCache shares one percentage sweep across fig13–fig16.
var sweepCache *experiments.SweepResult

// downscaleCache shares the K sweeps across fig17–fig19 (Fig. 17 uses the
// representative subset, Figs. 18/19 all scenes).
var (
	downscaleRepr *experiments.DownscaleResult
	downscaleAll  *experiments.DownscaleResult
)

func runExperiment(name string, s experiments.Settings, cfg config.Config, reps int) error {
	out := os.Stdout
	switch name {
	case "fig10":
		r, err := experiments.Fig10(s)
		if err != nil {
			return err
		}
		r.Render(out)
	case "fig11":
		r, err := experiments.Fig11(s)
		if err != nil {
			return err
		}
		r.Render(out)
	case "table3":
		r, err := experiments.Table3(s, cfg, reps)
		if err != nil {
			return err
		}
		r.Render(out)
	case "fig13", "fig14", "fig15", "fig16":
		if sweepCache == nil {
			r, err := experiments.PercentSweep(s, cfg, nil)
			if err != nil {
				return err
			}
			sweepCache = r
		}
		switch name {
		case "fig13":
			sweepCache.RenderFig13(out)
		case "fig14":
			sweepCache.RenderFig14(out)
		case "fig15":
			sweepCache.RenderFig15(out)
		case "fig16":
			sweepCache.RenderFig16(out)
		}
	case "fig17":
		if downscaleRepr == nil {
			r, err := experiments.DownscaleSweep(s, cfg, scene.RepresentativeSubset())
			if err != nil {
				return err
			}
			downscaleRepr = r
		}
		downscaleRepr.RenderErrors(out, "Fig. 17 (representative subset)")
	case "fig18", "fig19":
		if downscaleAll == nil {
			r, err := experiments.DownscaleSweep(s, cfg, scene.Names())
			if err != nil {
				return err
			}
			downscaleAll = r
		}
		if name == "fig18" {
			downscaleAll.RenderErrors(out, "Fig. 18 (all scenes)")
		} else {
			downscaleAll.RenderSpeedup(out)
		}
	case "fig20":
		r, err := experiments.Fig20(s, cfg, nil)
		if err != nil {
			return err
		}
		r.Render(out)
	default:
		usage()
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sweep [flags] <fig10|fig11|table3|fig13|fig14|fig15|fig16|fig17|fig18|fig19|fig20|all>")
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
