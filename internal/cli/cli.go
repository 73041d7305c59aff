// Package cli is the shared front end of the pipeline CLIs (cmd/zatel and
// cmd/sweep): one binder registers the sampling, fault-tolerance and
// observability flags both commands take, turns them into
// core.SamplingOptions and core.FaultTolerance, and applies the
// process-level settings (logger, pprof profiles, artifact-store budget,
// Chrome trace). Each command declares only the flags that differ.
package cli

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"time"

	"zatel/internal/core"
	"zatel/internal/obs"
	"zatel/internal/store"
)

// Flags holds the shared flag values once the FlagSet has been parsed.
type Flags struct {
	// TargetCI is -target-ci, the adaptive relative CI half-width target.
	TargetCI float64

	sampling core.SamplingOptions
	ft       core.FaultTolerance

	storeSize, trace, cpuProfile, memProfile, logLevel string
}

// Register binds the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Float64Var(&f.TargetCI, "target-ci", 0, "adaptive sampling: relative CI half-width target, e.g. 0.05 for ±5% (requires stratified or rankedset; 0 = one round)")
	fs.IntVar(&f.sampling.Replicates, "replicates", 0, "replicate sub-draws per round for stratified/rankedset (0 = default 5)")
	fs.Float64Var(&f.sampling.Confidence, "confidence", 0, "confidence level for intervals: 0.90, 0.95 or 0.99 (0 = 0.95)")
	fs.IntVar(&f.sampling.MaxRounds, "max-rounds", 0, "adaptive re-draw round cap with -target-ci (0 = default 4)")

	fs.IntVar(&f.ft.Attempts, "attempts", 1, "max attempts per group instance (retries on failure)")
	fs.DurationVar(&f.ft.Backoff, "retry-backoff", 0, "base backoff between attempts (doubles, seeded jitter)")
	fs.DurationVar(&f.ft.Timeout, "job-timeout", 0, "per-attempt deadline for a group instance (0 = none)")
	fs.IntVar(&f.ft.Quorum, "quorum", 0, "surviving groups needed for a degraded prediction (0 = ceil(K/2), <0 = all)")
	fs.Float64Var(&f.ft.Inject.ErrorRate, "inject-errors", 0, "fault injection: per-attempt error probability in [0,1]")
	fs.Float64Var(&f.ft.Inject.PanicRate, "inject-panics", 0, "fault injection: per-attempt panic probability in [0,1]")
	fs.Float64Var(&f.ft.Inject.StragglerRate, "inject-straggle", 0, "fault injection: per-attempt straggler probability in [0,1]")
	fs.DurationVar(&f.ft.Inject.StragglerMean, "inject-straggle-mean", 50*time.Millisecond, "fault injection: mean straggler delay")
	fs.Uint64Var(&f.ft.Inject.Seed, "inject-seed", 1, "fault injection: decision seed")

	fs.StringVar(&f.storeSize, "store-size", "0", "artifact store byte budget, e.g. 256MiB (0 = unbounded)")
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace_event JSON of the run to this file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.logLevel, "log-level", "info", "log verbosity: debug, info, warn or error")
	return f
}

// Sampling returns the -replicates, -confidence and -max-rounds settings.
func (f *Flags) Sampling() core.SamplingOptions { return f.sampling }

// FT returns the retry, deadline, quorum and fault-injection settings.
func (f *Flags) FT() core.FaultTolerance { return f.ft }

// Setup applies -log-level, starts the -cpuprofile/-memprofile collectors
// and bounds the process-wide artifact store to -store-size, through which
// workload traces, quantized heatmaps and repeat predictions all flow. The
// returned stop flushes the profiles; it is idempotent, so commands call it
// on every exit path, interrupt included, and profiles survive any exit.
func (f *Flags) Setup() (stop func(), err error) {
	if _, err := obs.SetupLogger(os.Stderr, f.logLevel, false); err != nil {
		return func() {}, err
	}
	stop, err = obs.StartProfiles(f.cpuProfile, f.memProfile)
	if err != nil {
		return func() {}, err
	}
	budget, err := store.ParseSize(f.storeSize)
	if err != nil {
		return stop, err
	}
	store.Default().SetMaxBytes(budget)
	return stop, nil
}

// StartTrace attaches a tracer tagged with the meta key/value pairs to ctx
// when -trace is set, so every pipeline step, grid point, group job and
// retry attempt below records a span. The returned flush writes the spans
// as Chrome trace_event JSON; without -trace it does nothing.
func (f *Flags) StartTrace(ctx context.Context, meta ...string) (context.Context, func() error) {
	if f.trace == "" {
		return ctx, func() error { return nil }
	}
	tracer := obs.NewTracer()
	for i := 0; i+1 < len(meta); i += 2 {
		tracer.SetMeta(meta[i], meta[i+1])
	}
	return obs.WithTracer(ctx, tracer), func() error {
		out, err := os.Create(f.trace)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		slog.Info("trace written", "file", f.trace, "spans", len(tracer.Snapshot()))
		return nil
	}
}
