package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"zatel/internal/config"
	"zatel/internal/gpu"
	"zatel/internal/metrics"
	"zatel/internal/rt"
	"zatel/internal/sampling"
	"zatel/internal/scene"
)

// TestFrozenTruth re-simulates every frame of frozen.json and requires the
// reports to match; ZBENCH_UPDATE_FROZEN=1 rewrites the file instead.
// -short checks the 64×64 frames only.
func TestFrozenTruth(t *testing.T) {
	update := os.Getenv("ZBENCH_UPDATE_FROZEN") == "1"
	resolutions := []int{serveRes, coldRes}
	if testing.Short() && !update {
		resolutions = resolutions[:1]
	}
	frozen, err := loadFrozen()
	if err != nil && !update {
		t.Fatal(err)
	}
	fresh := frozenTable{}
	for _, res := range resolutions {
		for _, name := range scene.Names() {
			wl, err := rt.CachedWorkloadContext(context.Background(), name, res, res, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range configs {
				rep, err := gpu.Run(gpu.Job{Cfg: cfg, Traces: wl.Traces})
				if err != nil {
					t.Fatal(err)
				}
				rep.WallTime = 0
				fresh[frameKey(name, cfg, res)] = rep
				if update {
					continue
				}
				want, err := frozen.truth(name, cfg, res)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkReport(want, rep); err != nil {
					t.Errorf("%s: %v", frameKey(name, cfg, res), err)
				}
			}
		}
	}
	if update {
		data, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("frozen.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPerturbedFrozenValueFailsRun runs fullsim_compare on one short frame:
// it passes against the frozen table and fails when one expected counter is
// off by one.
func TestPerturbedFrozenValueFailsRun(t *testing.T) {
	frozen, err := loadFrozen()
	if err != nil {
		t.Fatal(err)
	}
	frames := []fullFrame{{"SPRNG", config.MobileSoC(), strategies}}
	cfg := runConfig{Seed: 1, Seconds: 0.001, Workers: 2}

	out, err := fullsimCompare(cfg, frozen, frames)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || out.Attempted != 4 {
		t.Fatalf("unperturbed run: attempted %d failed %d, problems %v", out.Attempted, out.Failed, out.Problems)
	}

	key := frameKey("SPRNG", config.MobileSoC(), coldRes)
	bad := frozenTable{}
	for k, v := range frozen {
		bad[k] = v
	}
	rep := bad[key]
	rep.L2Misses++
	bad[key] = rep
	out, err = fullsimCompare(cfg, bad, frames)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 {
		t.Fatalf("perturbed run: failed %d, want 1", out.Failed)
	}
	var stdout, stderr bytes.Buffer
	if code := report(out, endToEnd, &stdout, &stderr); code == 0 {
		t.Fatal("perturbed run exited 0")
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Fatalf("perturbed run printed %s", stdout.String())
	}
}

// TestServedMismatchFails feeds verifyServed a reply whose prediction
// differs from the direct one in its last bit.
func TestServedMismatchFails(t *testing.T) {
	k := serveKey{"SPRNG", "mobile", 1}
	opts, err := serveOptions(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := expectedPrediction(context.Background(), k, opts.CacheKey().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]float64{}
	for m, v := range want {
		named[m.String()] = v
	}
	arr := []arrival{{Key: k}, {Key: k}}
	resps := []response{
		{Status: 200, Key: opts.CacheKey().String(), Predicted: named, Done: time.Millisecond},
		{Status: 200, Key: opts.CacheKey().String(), Predicted: map[string]float64{}, Done: time.Millisecond},
	}
	off := map[string]float64{}
	for n, v := range named {
		off[n] = v
	}
	off[metrics.IPC.String()] = math.Nextafter(off[metrics.IPC.String()], math.Inf(1))
	resps[1].Predicted = off

	frozen, err := loadFrozen()
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{Metrics: map[string]float64{}}
	good := verifyServed(context.Background(), arr, resps, frozen, 2, out, t.Logf)
	if good != 1 || out.Failed != 1 {
		t.Fatalf("good %d failed %d, want 1 and 1 (problems %v)", good, out.Failed, out.Problems)
	}
}

// TestGeneratorDeterministic: one seed gives one op list and one arrival
// schedule; another seed gives others.
func TestGeneratorDeterministic(t *testing.T) {
	p1, a1 := serveSchedule(7, 20)
	p2, a2 := serveSchedule(7, 20)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(a1, a2) {
		t.Fatal("serve schedule differs for the same seed")
	}
	if _, a3 := serveSchedule(8, 20); reflect.DeepEqual(a1, a3) {
		t.Fatal("serve schedule identical for different seeds")
	}
	if !reflect.DeepEqual(coldOps(7), coldOps(7)) || reflect.DeepEqual(coldOps(7), coldOps(8)) {
		t.Fatal("predict_cold op list is not a function of the seed")
	}
	if !reflect.DeepEqual(fullFrames(7), fullFrames(7)) || reflect.DeepEqual(fullFrames(7), fullFrames(8)) {
		t.Fatal("fullsim_compare frame list is not a function of the seed")
	}

	if len(a1) != int(serveRate*20) {
		t.Fatalf("%d arrivals, want %d", len(a1), int(serveRate*20))
	}
	builds := 0
	for i, a := range a1 {
		if i > 0 && a.Due < a1[i-1].Due {
			t.Fatal("arrivals out of order")
		}
		if a.Node != i%2 {
			t.Fatal("arrivals do not alternate between nodes")
		}
		if a.Build {
			builds++
			if a.Key.Seed < firstNewSeed {
				t.Fatalf("build arrival %d reuses seed %d", i, a.Key.Seed)
			}
		} else if a.Key.Seed > serveSeeds {
			t.Fatalf("popular arrival %d has seed %d", i, a.Key.Seed)
		}
	}
	if want := int(math.Round(serveBuildShare * float64(len(a1)))); builds != want {
		t.Fatalf("%d builds, want %d", builds, want)
	}

	ops := coldOps(3)
	if len(ops) != len(scene.Names())*2*2 {
		t.Fatalf("%d cold ops", len(ops))
	}
	seen := map[string]bool{}
	for _, op := range ops {
		seen[op.String()] = true
		if op.Dist != sampling.Uniform && op.Dist != sampling.Stratified {
			t.Fatalf("cold op %s", op)
		}
	}
	if len(seen) != len(ops) {
		t.Fatal("cold op list repeats an op")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the names, units and order the
// program reports identical to BENCHMARK.json, and every name well formed.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %v\n code %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer:\n json %v\n code %v", bj.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for n := range workloads {
		code = append(code, n)
	}
	sort.Strings(names)
	sort.Strings(code)
	if !reflect.DeepEqual(names, code) {
		t.Errorf("workloads: json %v, code %v", names, code)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// TestTailPercentileTenBeyond: the tail is the target percentile only when
// at least ten samples lie beyond it.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, tail float64
	}{
		{1000, 99, 99}, {999, 99, 95}, {200, 99, 95}, {199, 99, 90},
		{40, 75, 75}, {39, 75, 50}, {48, 75, 75}, {5, 75, 50},
	} {
		if got := tailPercentile(c.n, c.want); got != c.tail {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.tail)
		}
		if c.tail != 50 && beyond(c.n, c.tail) < 10 {
			t.Errorf("n=%d: p%g has %d beyond", c.n, c.tail, beyond(c.n, c.tail))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if percentile(xs, 90) != 90 || median(xs) != 50.5 || beyond(100, 90) != 10 {
		t.Fatalf("p90 %g median %g", percentile(xs, 90), median(xs))
	}
}

// TestAnotherPass: the closed loops run the whole number of passes
// nearest to the run length.
func TestAnotherPass(t *testing.T) {
	for _, c := range []struct {
		elapsed time.Duration
		passes  int
		want    bool
	}{
		{19 * time.Second, 1, false}, // one 19 s pass: a second would end at 38 s
		{9 * time.Second, 1, true},
		{18 * time.Second, 2, false},
		{14 * time.Second, 2, true}, // 7 s passes: the third ends at 21 s
	} {
		if got := anotherPass(c.elapsed, c.passes, 20); got != c.want {
			t.Errorf("anotherPass(%v, %d, 20) = %v, want %v", c.elapsed, c.passes, got, c.want)
		}
	}
}

// TestOpenLoopCountsFromDueTime: requests are sent at their due times
// without waiting for slow replies, and latency counts from the due time,
// so a generator running behind schedule charges its lateness too.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const gap, work, behind = 10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond
	arr := make([]arrival, 6)
	for i := range arr {
		arr[i].Due = time.Duration(i) * gap
	}
	// On schedule: every request goes out at its due time although each
	// reply takes three gaps.
	resps := openLoop(arr, time.Now(), func(arrival) response {
		time.Sleep(work)
		return response{Status: 200}
	})
	for i, r := range resps {
		if r.Due != arr[i].Due || r.Sent-r.Due > 5*time.Millisecond {
			t.Errorf("request %d due %v sent %v: the loop waited for earlier replies", i, r.Due, r.Sent)
		}
		if r.Latency() < work {
			t.Errorf("request %d latency %v < service %v", i, r.Latency(), work)
		}
	}
	// Behind schedule: the start lies in the past, so every request is sent
	// late and its latency includes the lateness.
	resps = openLoop(arr, time.Now().Add(-behind), func(arrival) response {
		time.Sleep(work)
		return response{Status: 200}
	})
	for i, r := range resps {
		if r.Latency() < behind+work-time.Duration(i)*gap || r.Latency() < r.Service()+(r.Sent-r.Due) {
			t.Errorf("request %d: latency %v, service %v, sent %v late: lateness not counted",
				i, r.Latency(), r.Service(), r.Sent-r.Due)
		}
	}
}
