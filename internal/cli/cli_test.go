package cli

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zatel/internal/core"
	"zatel/internal/faults"
	"zatel/internal/obs"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaults(t *testing.T) {
	f := parse(t)
	wantFT := core.FaultTolerance{
		Attempts: 1,
		Inject:   faults.Config{StragglerMean: 50 * time.Millisecond, Seed: 1},
	}
	if got := f.FT(); got != wantFT {
		t.Errorf("FT() = %+v, want %+v", got, wantFT)
	}
	if got := f.Sampling(); got != (core.SamplingOptions{}) {
		t.Errorf("Sampling() = %+v, want zero", got)
	}
	if f.TargetCI != 0 || f.storeSize != "0" || f.logLevel != "info" {
		t.Errorf("defaults: target-ci %v, store-size %q, log-level %q", f.TargetCI, f.storeSize, f.logLevel)
	}
}

func TestParseFullArgumentList(t *testing.T) {
	f := parse(t,
		"-target-ci", "0.05", "-replicates", "7", "-confidence", "0.99", "-max-rounds", "3",
		"-attempts", "4", "-retry-backoff", "20ms", "-job-timeout", "2s", "-quorum", "-1",
		"-inject-errors", "0.25", "-inject-panics", "0.125", "-inject-straggle", "0.5",
		"-inject-straggle-mean", "10ms", "-inject-seed", "9",
		"-store-size", "256MiB", "-trace", "t.json", "-cpuprofile", "c.pprof",
		"-memprofile", "m.pprof", "-log-level", "debug",
	)
	if f.TargetCI != 0.05 {
		t.Errorf("TargetCI = %v, want 0.05", f.TargetCI)
	}
	s := f.Sampling()
	if s.Replicates != 7 || s.Confidence != 0.99 || s.MaxRounds != 3 || s.Growth != 0 {
		t.Errorf("Sampling() = %+v", s)
	}
	ft := f.FT()
	if ft.Attempts != 4 || ft.Backoff != 20*time.Millisecond || ft.Timeout != 2*time.Second || ft.Quorum != -1 {
		t.Errorf("FT() retry fields = %+v", ft)
	}
	in := ft.Inject
	if in.ErrorRate != 0.25 || in.PanicRate != 0.125 || in.StragglerRate != 0.5 ||
		in.StragglerMean != 10*time.Millisecond || in.Seed != 9 {
		t.Errorf("FT().Inject = %+v", in)
	}
	if f.storeSize != "256MiB" || f.trace != "t.json" || f.cpuProfile != "c.pprof" ||
		f.memProfile != "m.pprof" || f.logLevel != "debug" {
		t.Errorf("process flags = %q %q %q %q %q", f.storeSize, f.trace, f.cpuProfile, f.memProfile, f.logLevel)
	}
}

func TestSetupRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-log-level", "loud"},
		{"-store-size", "lots"},
	} {
		stop, err := parse(t, args...).Setup()
		if err == nil {
			t.Errorf("Setup with %v: want error", args)
		}
		stop()
	}
}

func TestStartTrace(t *testing.T) {
	ctx, flush := parse(t).StartTrace(context.Background())
	if obs.FromContext(ctx) != nil {
		t.Error("tracer attached without -trace")
	}
	if err := flush(); err != nil {
		t.Errorf("flush without -trace: %v", err)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	ctx, flush = parse(t, "-trace", path).StartTrace(context.Background(), "cmd", "test")
	_, sp := obs.StartSpan(ctx, "step")
	sp.End()
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace file %s: %v, %d events", b, err, len(doc.TraceEvents))
	}
}
