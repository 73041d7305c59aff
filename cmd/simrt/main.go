// Command simrt runs the full cycle-level GPU simulation of a scene — the
// ground-truth baseline Zatel is compared against (what the paper obtains
// from an unmodified Vulkan-Sim run).
//
// Usage:
//
//	simrt -scene PARK -config mobile -res 128 -spp 2
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

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/obs"
	"zatel/internal/scene"
)

func main() {
	var (
		sceneName = flag.String("scene", "PARK", "scene name ("+strings.Join(scene.Names(), ", ")+")")
		cfgName   = flag.String("config", "mobile", "GPU configuration: mobile or rtx2060")
		res       = flag.Int("res", 128, "square frame resolution")
		spp       = flag.Int("spp", 2, "samples per pixel")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()

	if _, err := obs.SetupLogger(os.Stderr, *logLevel, false); err != nil {
		fatal(err)
	}

	cfg, err := config.ByName(*cfgName)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the workload build (between rows) and abort
	// before the cycle-level replay launches; we exit 130 like the other
	// CLIs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := core.ReferenceContext(ctx, cfg, *sceneName, *res, *res, *spp)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "simrt: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Printf("full simulation: %s on %s (%dx%d, %d spp)\n", *sceneName, cfg.Name, *res, *res, *spp)
	fmt.Printf("%-22s%16s\n", "Metric", "Value")
	for _, m := range metrics.All() {
		fmt.Printf("%-22s%16.4f\n", m, rep.Value(m))
	}
	fmt.Printf("%-22s%16d\n", "Instructions", rep.Instructions)
	fmt.Printf("%-22s%16d\n", "Warps", rep.Warps)
	fmt.Printf("%-22s%16s\n", "Wall time", rep.WallTime.Round(1e6).String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrt:", err)
	os.Exit(1)
}
