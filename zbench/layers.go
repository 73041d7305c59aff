package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"time"

	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/obs"
)

// span is one recorded interval, from an in-process tracer or a Chrome
// trace returned by zateld's ?trace=1.
type span struct {
	Name       string
	Start, Dur time.Duration
	Attrs      map[string]string
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// predictSpans is one core.PredictContext call as the program traced it:
// the root "predict" span, its step spans by name, and the step-6 group
// jobs of the worker pool.
type predictSpans struct {
	Root   span
	Steps  map[string]span
	Groups []span
}

// predictsFromTracer reassembles every predict call recorded on tr.
func predictsFromTracer(recs []obs.SpanRecord) []predictSpans {
	byParent := map[int64][]obs.SpanRecord{}
	for _, r := range recs {
		byParent[r.Parent] = append(byParent[r.Parent], r)
	}
	conv := func(r obs.SpanRecord) span { return span{r.Name, r.Start, r.Dur, r.Attrs} }
	var out []predictSpans
	for _, r := range recs {
		if r.Name != "predict" {
			continue
		}
		ps := predictSpans{Root: conv(r), Steps: map[string]span{}}
		for _, c := range byParent[r.ID] {
			ps.Steps[c.Name] = conv(c)
			if c.Name == "step6_simulate" {
				for _, g := range byParent[c.ID] {
					if strings.HasPrefix(g.Name, "group[") {
						ps.Groups = append(ps.Groups, conv(g))
					}
				}
			}
		}
		out = append(out, ps)
	}
	return out
}

// predictFromChrome reassembles the predict call in one zateld request
// trace (Chrome trace_event JSON); ok is false when the request ran none.
// Chrome events carry no parent links, so steps and groups are matched by
// name; a request runs at most one predict.
func predictFromChrome(data []byte) (ps predictSpans, ok bool, err error) {
	var tr struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return ps, false, err
	}
	ps.Steps = map[string]span{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := span{e.Name, time.Duration(e.TS) * time.Microsecond, time.Duration(e.Dur) * time.Microsecond, e.Args}
		switch {
		case e.Name == "predict":
			ps.Root, ok = s, true
		case strings.HasPrefix(e.Name, "step"):
			ps.Steps[e.Name] = s
		case strings.HasPrefix(e.Name, "group["):
			ps.Groups = append(ps.Groups, s)
		}
	}
	return ps, ok, nil
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi).
func covered(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.end(), hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTimes attributes predict wall time to layers. The parts add up to
// the predict span exactly:
//
//	rt       = step1_profile (functional trace fetch or build)
//	kmeans   = step2_quantize
//	sampling = step4_partition + step5_select
//	gpu      = the part of step6_simulate covered by group jobs
//	runner   = the rest of step6_simulate (pool start-up and hand-off)
//	combine  = step7_combine
//	core     = predict minus its step spans, plus step3_downscale
//
// runner.queue_wait_s is waiting, not busy time: the summed time group jobs
// sat in the pool queue, which overlaps other groups' simulation.
type layerTimes struct {
	n, groups                         int
	predict, rt, kmeans, sel, gpuRun  float64
	runnerSelf, merge, coreSelf, wait float64
}

func (l *layerTimes) add(ps predictSpans) {
	step := func(name string) time.Duration { return ps.Steps[name].Dur }
	steps := make([]span, 0, len(ps.Steps))
	for _, s := range ps.Steps {
		steps = append(steps, s)
	}
	s6 := ps.Steps["step6_simulate"]
	gpuRun := covered(ps.Groups, s6.Start, s6.end())
	l.n++
	l.groups += len(ps.Groups)
	l.predict += ps.Root.Dur.Seconds()
	l.rt += step("step1_profile").Seconds()
	l.kmeans += step("step2_quantize").Seconds()
	l.sel += (step("step4_partition") + step("step5_select")).Seconds()
	l.gpuRun += gpuRun.Seconds()
	l.runnerSelf += (s6.Dur - gpuRun).Seconds()
	l.merge += step("step7_combine").Seconds()
	l.coreSelf += (ps.Root.Dur - covered(steps, ps.Root.Start, ps.Root.end()) + step("step3_downscale")).Seconds()
	for _, g := range ps.Groups {
		if us, err := strconv.ParseInt(g.Attrs["queue_us"], 10, 64); err == nil {
			l.wait += float64(us) / 1e6
		}
	}
}

// fill writes per-predict means.
func (l *layerTimes) fill(m map[string]float64, logf func(string, ...any)) {
	if l.n == 0 {
		return
	}
	n := float64(l.n)
	m["core.predict_s"] = l.predict / n
	m["rt.trace_build_s"] = l.rt / n
	m["kmeans.quantize_s"] = l.kmeans / n
	m["sampling.select_s"] = l.sel / n
	m["gpu.group_run_s"] = l.gpuRun / n
	m["runner.self_s"] = l.runnerSelf / n
	m["combine.merge_s"] = l.merge / n
	m["core.self_s"] = l.coreSelf / n
	m["runner.queue_wait_s"] = l.wait / n
	parts := l.rt + l.kmeans + l.sel + l.gpuRun + l.runnerSelf + l.merge + l.coreSelf
	logf("predict split over %d traced predicts: wall %.4f s = rt %.1f%% + kmeans %.1f%% + sampling %.1f%% + gpu %.1f%% + runner %.1f%% + combine %.1f%% + core %.1f%% (unattributed %.4f s)",
		l.n, l.predict/n, 100*l.rt/l.predict, 100*l.kmeans/l.predict, 100*l.sel/l.predict,
		100*l.gpuRun/l.predict, 100*l.runnerSelf/l.predict, 100*l.merge/l.predict,
		100*l.coreSelf/l.predict, (l.predict-parts)/n)
}

// simCounts sums exact simulator counters from reports.
type simCounts struct {
	instr, cycles, rays, l1a, l1m, l2a, l2m, dramReads, dramBusy uint64
}

func (c *simCounts) add(r metrics.Report) {
	c.instr += r.Instructions
	c.cycles += r.Cycles
	c.rays += r.RTRaysTraced
	c.l1a += r.L1DAccesses
	c.l1m += r.L1DMisses
	c.l2a += r.L2Accesses
	c.l2m += r.L2Misses
	c.dramReads += r.DRAMReads
	c.dramBusy += r.DRAMBusyCycles
}

func (c *simCounts) fill(m map[string]float64) {
	m["gpu.instructions"] = float64(c.instr)
	m["gpu.cycles"] = float64(c.cycles)
	m["gpu.rt_rays_traced"] = float64(c.rays)
	m["cache.l1d_accesses"] = float64(c.l1a)
	m["cache.l1d_misses"] = float64(c.l1m)
	m["cache.l2_accesses"] = float64(c.l2a)
	m["cache.l2_misses"] = float64(c.l2m)
	m["dram.reads"] = float64(c.dramReads)
	m["dram.busy_cycles"] = float64(c.dramBusy)
}

// groupStats folds the per-group records of core results: simulator runs
// per predict, the traced fraction, and host time per simulated instruction
// over point-estimate groups (a replicated group's Report holds only its
// last replicate, so its instructions cannot be matched to its wall time).
type groupStats struct {
	predicts, runs   int
	selected, pixels int
	wallNs           float64
	instr            uint64
	counts           simCounts
}

func (g *groupStats) add(res *core.Result) {
	g.predicts++
	for _, gr := range res.Groups {
		g.counts.add(gr.Report)
		g.selected += gr.Selected
		g.pixels += gr.Pixels
		if gr.Replicates > 0 {
			g.runs += gr.Replicates * gr.Rounds
			continue
		}
		g.runs++
		g.wallNs += float64(gr.WallTime.Nanoseconds())
		g.instr += gr.Report.Instructions
	}
}

func (g *groupStats) fill(m map[string]float64) {
	if g.predicts == 0 {
		return
	}
	m["gpu.group_runs"] = float64(g.runs) / float64(g.predicts)
	if g.pixels > 0 {
		m["sampling.selected_fraction"] = float64(g.selected) / float64(g.pixels)
	}
	if g.instr > 0 {
		m["gpu.ns_per_instr"] = g.wallNs / float64(g.instr)
	}
	g.counts.fill(m)
}
