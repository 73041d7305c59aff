// Command heatmap renders a scene's execution-time heatmap (and optionally
// its K-means-quantized version) as a PPM image — steps 1 and 2 of the
// Zatel pipeline, corresponding to the paper's Fig. 4/9 visualisations.
//
// Usage:
//
//	heatmap -scene BUNNY -res 256 -o bunny.ppm
//	heatmap -scene PARK -quantize 8 -o park_quant.ppm
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"zatel/internal/heatmap"
	"zatel/internal/obs"
	"zatel/internal/partition"
	"zatel/internal/rt"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/vecmath"
)

func main() {
	var (
		sceneName = flag.String("scene", "PARK", "scene name ("+strings.Join(scene.Names(), ", ")+")")
		res       = flag.Int("res", 128, "square frame resolution")
		spp       = flag.Int("spp", 1, "samples per pixel for profiling")
		quantize  = flag.Int("quantize", 0, "K-means palette size (0 = raw heatmap)")
		selectPct = flag.Float64("select", 0, "if >0, render the representative-pixel subset (Fig. 8): selected pixels keep their colour, the rest darken")
		dist      = flag.String("dist", "uniform", "distribution for -select: uniform, lintmp, exptmp, stratified or rankedset")
		outPath   = flag.String("o", "", "output PPM path (default <scene>.ppm)")
		seed      = flag.Uint64("seed", 1, "quantization seed")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()

	if _, err := obs.SetupLogger(os.Stderr, *logLevel, false); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the path trace between rows; no partial image
	// is written and we exit 130 like the other CLIs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	wl, err := rt.CachedWorkloadContext(ctx, *sceneName, *res, *res, *spp)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "heatmap: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}
	hm, err := heatmap.FromCost(wl.Cost, wl.Width, wl.Height)
	if err != nil {
		fatal(err)
	}

	path := *outPath
	if path == "" {
		path = strings.ToLower(*sceneName) + ".ppm"
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)

	switch {
	case *selectPct > 0:
		levels := *quantize
		if levels == 0 {
			levels = 8
		}
		q, err := hm.Quantize(levels, *seed)
		if err != nil {
			fatal(err)
		}
		d, err := sampling.ParseDistribution(strings.ToLower(*dist))
		if err != nil {
			fatal(err)
		}
		groups, err := partition.Coarse(wl.Width, wl.Height, 1, 32, 2)
		if err != nil {
			fatal(err)
		}
		sel, err := sampling.Select(q, &groups[0], *selectPct, d, vecmath.NewRNG(*seed))
		if err != nil {
			fatal(err)
		}
		if err := writeSelectionPPM(w, q, sel); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote selection overlay (%d/%d pixels, %s) to %s\n",
			len(sel.Pixels), wl.Pixels(), d, path)
	case *quantize > 0:
		q, err := hm.Quantize(*quantize, *seed)
		if err != nil {
			fatal(err)
		}
		if err := q.WritePPM(w); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote quantized heatmap (%d levels) to %s\n", len(q.Levels), path)
	default:
		if err := hm.WritePPM(w); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote heatmap to %s\n", path)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// writeSelectionPPM renders the quantized heatmap with unselected pixels
// darkened to 1/5 brightness — the Fig. 8 representative-subset view.
func writeSelectionPPM(w *bufio.Writer, q *heatmap.Quantized, sel sampling.Selection) error {
	keep := make(map[int32]bool, len(sel.Pixels))
	for _, p := range sel.Pixels {
		keep[p] = true
	}
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", q.Width, q.Height); err != nil {
		return err
	}
	for i := 0; i < q.Width*q.Height; i++ {
		r, g, b := heatmap.GradientRGB(q.TempOf(i))
		if !keep[int32(i)] {
			r, g, b = r/5, g/5, b/5
		}
		if err := w.WriteByte(r); err != nil {
			return err
		}
		if err := w.WriteByte(g); err != nil {
			return err
		}
		if err := w.WriteByte(b); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heatmap:", err)
	os.Exit(1)
}
