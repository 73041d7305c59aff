// Command zbench is the repository benchmark: one command that runs a named
// workload from a seed, checks that the outputs are correct, and prints every
// end-to-end metric (untraced run) or every per-layer metric (traced run) as
// the last line of standard output, in JSON.
//
//	bash zbench/run.sh --workload predict_cold --seed 1 --seconds 20 --trace 0
//
// It drives the program only through the layers' public functions
// (core.PredictContext, gpu.Run, rt workload builds, service.New(...).Handler,
// store and cluster snapshots, /metrics) and reads the spans the program
// already records through an obs.Tracer put in the context. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"time"

	"zatel/internal/gpu"
	"zatel/internal/store"
)

// metricSpec names one reported metric. The lists below are the contract
// BENCHMARK.json repeats; TestMetricNamesMatchBenchmarkJSON keeps the two in
// step.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user sees, measured with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ipc_err_pct", "%"},
	{"cycles_err_pct", "%"},
	{"metric_err_pct", "%"},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload never reaches reports 0.
var perLayer = []metricSpec{
	{"core.predict_s", "s"},
	{"rt.trace_build_s", "s"},
	{"rt.trace_mib", "MiB"},
	{"kmeans.quantize_s", "s"},
	{"sampling.select_s", "s"},
	{"sampling.selected_fraction", "ratio"},
	{"runner.queue_wait_s", "s"},
	{"runner.self_s", "s"},
	{"gpu.group_run_s", "s"},
	{"gpu.group_runs", "count"},
	{"gpu.ns_per_instr", "ns"},
	{"gpu.fullsim_run_s", "s"},
	{"gpu.fullsim_minstr_per_s", "Minstr/s"},
	{"gpu.allocs_per_run", "count"},
	{"gpu.instructions", "count"},
	{"gpu.cycles", "count"},
	{"gpu.rt_rays_traced", "count"},
	{"cache.l1d_accesses", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_misses", "count"},
	{"dram.reads", "count"},
	{"dram.busy_cycles", "count"},
	{"combine.merge_s", "s"},
	{"extrapolate.ci_rel_halfwidth", "ratio"},
	{"extrapolate.ci_coverage", "ratio"},
	{"core.self_s", "s"},
	{"core.speedup_x", "x"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_ms", "ms"},
	{"store.disk_hits", "count"},
	{"store.evictions", "count"},
	{"store.builds", "count"},
	{"store.build_ms", "ms"},
	{"store.coalesced", "count"},
	{"service.hit_ms", "ms"},
	{"service.admission_wait_s", "s"},
	{"service.shed", "count"},
	{"cluster.peer_ms", "ms"},
	{"cluster.peer_fetches", "count"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.local_fallbacks", "count"},
	{"loadgen.late_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Work is a scratch directory inside the checkout, removed at exit.
	Work string
	// Workers bounds the load the benchmark draws: pool workers per
	// prediction, senders and connections (nproc).
	Workers int
}

// outcome is one workload run: counts, metric values and the output-check
// failures found.
type outcome struct {
	Attempted, Failed int
	Metrics           map[string]float64
	Problems          []string
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"predict_cold":    runPredictCold,
	"fullsim_compare": runFullsimCompare,
	"serve_fleet":     runServeFleet,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "predict_cold, fullsim_compare or serve_fleet")
	seed := fs.Uint64("seed", 1, "workload seed: op order, arrivals and key popularity")
	seconds := fs.Float64("seconds", 20, "measured duration (whole passes on the closed-loop workloads)")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for disk tiers and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "zbench: bad arguments (workload %q, trace %d, seconds %v)\n", *workload, *trace, *seconds)
		return 2
	}
	// Request logs from the service and cluster would swamp the output.
	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelError})))

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "zbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "zbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Work: work, Workers: min(2, runtime.NumCPU())}
	fmt.Fprintf(stderr, "zbench: workload %s seed %d seconds %g trace %v; %s, GOMAXPROCS %d, nproc %d, workers %d\n",
		*workload, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.Workers)
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "zbench: %s: %v\n", *workload, err)
		return 1
	}
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	return report(out, specs, stdout, stderr)
}

// report prints the human-readable table to stderr and the result object as
// the last line of stdout. A failed output check exits 1.
func report(out *outcome, specs []metricSpec, stdout, stderr io.Writer) int {
	for _, p := range out.Problems {
		fmt.Fprintf(stderr, "CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.Failed == 0 && out.Attempted > 0, Attempted: out.Attempted, Failed: out.Failed,
		Metrics: make(map[string]value, len(specs))}
	for _, s := range specs {
		v := out.Metrics[s.Name]
		res.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
		fmt.Fprintf(stderr, "  %-30s %14.6g %s\n", s.Name, v, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "zbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// resetCaches puts the process in the stated cold state every run and every
// set-up starts from: the process-wide artifact store emptied through its
// byte budget, no pooled simulator state, and a collected heap whose free
// pages went back to the OS, as in a fresh process. Freed artifacts of one
// operation are then not collected on the next one's time, and whether a
// page is already mapped does not depend on when the runtime last
// scavenged.
func resetCaches() {
	store.Default().SetMaxBytes(1)
	store.Default().SetMaxBytes(0)
	gpu.DrainPools()
	debug.FreeOSMemory()
}

// repeatSetup runs a workload's set-up reps times and returns the median
// duration; the state of the last repetition is the one measured.
func repeatSetup(reps int, setup func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// heapWatch tracks the largest live heap a garbage collection found while
// it runs: the memory the workload actually holds, which unlike the
// resident-set peak does not depend on when collections happened to run.
type heapWatch struct {
	stop, done chan struct{}
	max        uint64
}

// startMeasuring ends a workload's set-up: it collects the heap and starts
// watching the live heap of the measured phase.
func startMeasuring() *heapWatch {
	runtime.GC()
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			w.max = max(w.max, s[0].Value.Uint64())
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// Stop ends the watch and returns the largest live heap seen, in MiB.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	<-w.done
	return float64(w.max) / (1 << 20)
}

// writeSpans dumps a traced run's spans as Chrome trace JSON into the
// checkout's build directory, next to the run's scratch directory.
func writeSpans(cfg runConfig, name string, write func(io.Writer) error) {
	path := filepath.Join(filepath.Dir(cfg.Work), fmt.Sprintf("spans-%s-seed%d.json", name, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	if err := write(f); err == nil {
		fmt.Fprintf(os.Stderr, "zbench: spans written to %s\n", path)
	}
	f.Close()
}
