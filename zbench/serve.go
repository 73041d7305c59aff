package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zatel/internal/cluster"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/obs"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/service"
	"zatel/internal/store"
)

// serve_fleet's traffic. The offered rate keeps the two-node fleet well
// below saturation on a 2-core host; the build share is fixed so the mix
// stays stationary, and is three cycles of the 16 scene × config frames per
// 1000 requests, so every run builds the same frames.
const (
	serveRes        = 64
	serveRate       = 50.0  // offered requests per second
	serveBuildShare = 0.048 // share of requests carrying a never-seen seed
	serveSeeds      = 3     // pipeline seeds of the popular key space
	serveZipfS      = 1.0
	serveLimit      = time.Second // latency limit for goodput
	serveTimeoutMs  = 5000
	// serveMemBytes is each node's memory-tier budget: about 30 predictions
	// of 64×64, enough for the hot set, so the warm tail is served from disk.
	serveMemBytes = 1 << 20
	// firstNewSeed starts the never-seen seeds, far above the key space.
	firstNewSeed = 1000
)

// serveKey is one prediction request's identity.
type serveKey struct {
	Scene  string
	Config string // service config name
	Seed   uint64
}

func (k serveKey) String() string { return fmt.Sprintf("%s/%s/seed%d", k.Scene, k.Config, k.Seed) }

// serveUniverse is the popular key space: scenes × configs × seeds.
func serveUniverse() []serveKey {
	var keys []serveKey
	for _, s := range scene.Names() {
		for _, c := range []string{"mobile", "rtx2060"} {
			for seed := uint64(1); seed <= serveSeeds; seed++ {
				keys = append(keys, serveKey{s, c, seed})
			}
		}
	}
	return keys
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	Due   time.Duration // offset from the start of the measured phase
	Node  int
	Key   serveKey
	Build bool // carries a never-seen seed
	Trace bool // asks for ?trace=1 (traced runs only)
}

// serveSchedule draws the run's traffic from seed: the universe in
// popularity order (most popular first) and the arrivals. Arrival times are
// a Poisson process conditioned on its count (sorted uniform times), so
// every run offers exactly rate × seconds requests; arrivals alternate
// between the nodes; a fixed share, evenly spaced, carries a never-seen
// seed and cycles through every scene × config; the rest draw keys
// Zipf-popular over the universe.
func serveSchedule(seed uint64, seconds float64) ([]serveKey, []arrival) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	popular := serveUniverse()
	rng.Shuffle(len(popular), func(i, j int) { popular[i], popular[j] = popular[j], popular[i] })

	n := int(math.Round(serveRate * seconds))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * seconds
	}
	sort.Float64s(dues)

	// Builds sit at evenly spaced positions with a seeded phase, so two
	// builds rarely overlap and a build's latency reflects its frame.
	builds := map[int]bool{}
	nb := int(math.Round(serveBuildShare * float64(n)))
	phase := rng.Float64()
	for j := 0; j < nb; j++ {
		builds[int((float64(j)+phase)*float64(n)/float64(nb))] = true
	}
	combos := make([]serveKey, 0, 16)
	for _, k := range serveUniverse() {
		if k.Seed == 1 {
			combos = append(combos, k)
		}
	}
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })

	cdf := make([]float64, len(popular))
	var sum float64
	for r := range popular {
		sum += 1 / math.Pow(float64(r+1), serveZipfS)
		cdf[r] = sum
	}
	arr := make([]arrival, n)
	nb = 0
	for i := range arr {
		a := arrival{Due: time.Duration(dues[i] * float64(time.Second)), Node: i % 2, Trace: (i/2)%2 == 0}
		if builds[i] {
			a.Key = combos[nb%len(combos)]
			a.Key.Seed = firstNewSeed + uint64(nb)
			a.Build = true
			nb++
		} else {
			r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
			a.Key = popular[min(r, len(popular)-1)]
		}
		arr[i] = a
	}
	return popular, arr
}

// serveOptions are the pipeline options zateld derives from a request for
// key; verification predicts them directly and checks the key digests agree.
func serveOptions(k serveKey, workers int) (core.Options, error) {
	cfg, err := service.ConfigByName(k.Config)
	if err != nil {
		return core.Options{}, err
	}
	o := predictOptions(k.Scene, cfg, serveRes, sampling.Uniform, workers)
	o.Seed = k.Seed
	return o, nil
}

func requestBody(k serveKey) []byte {
	b, _ := json.Marshal(service.PredictRequest{Scene: k.Scene, Config: k.Config,
		Width: serveRes, Height: serveRes, SPP: 1, Seed: k.Seed, TimeoutMs: serveTimeoutMs})
	return b
}

// fleetNode is one in-process zateld: its own memory budget, disk tier,
// cluster view and HTTP server on a loopback port.
type fleetNode struct {
	url  string
	st   *store.Store
	disk *store.Disk
	cl   *cluster.Cluster
	hs   *http.Server
	done chan struct{}
}

// startFleet brings up two nodes that know each other.
func startFleet(dir string, workers int) ([]*fleetNode, error) {
	const n = 2
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	nodes := make([]*fleetNode, 0, n)
	for i := range lns {
		nd, err := startNode(dir, i, urls, lns[i], workers)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopFleet(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func startNode(dir string, i int, urls []string, ln net.Listener, workers int) (*fleetNode, error) {
	name := fmt.Sprintf("node-%c", 'a'+i)
	disk, err := store.OpenDisk(store.DiskConfig{Dir: filepath.Join(dir, name)})
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{Self: urls[i], Name: name, Peers: urls})
	if err != nil {
		disk.Close()
		return nil, err
	}
	st := store.New(serveMemBytes)
	st.AttachDisk(disk)
	st.AttachPeers(cl)
	// One build per core, each running its groups serially: concurrent
	// builds then do not contend for the same cores, so a build's latency
	// depends on its frame rather than on what it overlapped with.
	srv := service.New(service.Config{Store: st, Cluster: cl, NodeName: name, MaxConcurrent: workers})
	hs := &http.Server{Handler: srv.Handler(), Protocols: new(http.Protocols)}
	hs.Protocols.SetHTTP1(true) // peer fetches and proxying
	hs.Protocols.SetUnencryptedHTTP2(true)
	nd := &fleetNode{url: urls[i], st: st, disk: disk, cl: cl, hs: hs, done: make(chan struct{})}
	go func() {
		defer close(nd.done)
		nd.hs.Serve(ln)
	}()
	return nd, nil
}

// stopFleet shuts every node down and waits for its server, prober and
// disk writer to finish.
func stopFleet(nodes []*fleetNode) {
	for _, nd := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		nd.hs.Shutdown(ctx)
		cancel()
		<-nd.done
		nd.cl.Close()
		nd.disk.Close()
	}
}

// response is what the benchmark keeps of one request.
type response struct {
	Status    int
	Cache     string
	Key       string
	Predicted map[string]float64
	Trace     json.RawMessage
	Due, Sent time.Duration // offsets from the measured phase's start
	Done      time.Duration
	Err       error
}

// Latency is timed from when the request was due, so a stall also charges
// the requests queued behind it.
func (r response) Latency() time.Duration { return r.Done - r.Due }

// Service is the time from send to response.
func (r response) Service() time.Duration { return r.Done - r.Sent }

// openLoop sends every arrival at its due time, each on its own goroutine,
// whether or not earlier requests have answered, and records due, send and
// completion times relative to start. Requests share the client's
// connections (HTTP/2 streams), so a slow reply holds up no later request.
func openLoop(arr []arrival, start time.Time, send func(arrival) response) []response {
	out := make([]response, len(arr))
	var wg sync.WaitGroup
	for i := range arr {
		// A timer wakes the loop up to a millisecond late on a busy host;
		// sleeping short and yielding until the due time keeps the
		// generator's own lateness out of the latencies it measures.
		due := start.Add(arr[i].Due)
		if d := time.Until(due) - time.Millisecond; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := time.Since(start)
			r := send(arr[i])
			r.Due, r.Sent, r.Done = arr[i].Due, sent, time.Since(start)
			out[i] = r
		}(i)
	}
	wg.Wait()
	return out
}

// forEach runs fn(0..n-1) on workers goroutines and returns their errors
// joined.
func forEach(n, workers int, fn func(int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// post sends one predict request and decodes the reply.
func post(ctx context.Context, hc *http.Client, url string, k serveKey, trace bool) response {
	if trace {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(requestBody(k)))
	if err != nil {
		return response{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return response{Err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r := response{Status: resp.StatusCode, Err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		var pr service.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			r.Err = err
		} else {
			r.Cache, r.Key, r.Predicted, r.Trace = pr.Cache, pr.Key, pr.Predicted, pr.Trace
		}
	}
	return r
}

// snapshotFleet sums, over both nodes, every counter the per-layer metrics
// difference across the measured phase: store tiers, cluster peer tier,
// the cluster latency histograms and the admission wait from /metrics.
func snapshotFleet(ctx context.Context, hc *http.Client, nodes []*fleetNode) (map[string]float64, error) {
	c := map[string]float64{}
	for _, nd := range nodes {
		st := nd.st.Stats()
		m := st.Mem
		c["mem_hits"] += float64(m.Hits)
		c["mem_lookups"] += float64(m.Hits + m.Misses + m.Coalesced + m.DiskHits + m.PeerHits)
		c["disk_hits"] += float64(m.DiskHits)
		c["evictions"] += float64(m.Evictions)
		c["builds"] += float64(m.Builds)
		c["coalesced"] += float64(m.Coalesced)
		c["peer_fetches"] += float64(st.Peer.Fetches)
		c["local_fallbacks"] += float64(st.Peer.LocalFallbacks)
		for name, h := range map[string]*obs.Histogram{"fetch": nd.cl.FetchLatency(), "proxy": nd.cl.ProxyLatency()} {
			s, n := histSumCount(h)
			c[name+"_sum"] += s
			c[name+"_n"] += n
		}
		prom, err := scrape(ctx, hc, nd.url+"/metrics")
		if err != nil {
			return nil, err
		}
		c["wait_sum"] += prom[`zatel_stage_latency_seconds_sum{stage="admission_wait"}`]
		c["wait_n"] += prom[`zatel_stage_latency_seconds_count{stage="admission_wait"}`]
	}
	return c, nil
}

// histSumCount reads a histogram's sum (seconds) and count through its
// Prometheus exposition, the only view the histogram offers.
func histSumCount(h *obs.Histogram) (sum, count float64) {
	var buf bytes.Buffer
	h.WriteProm(&buf, "h", "")
	vals := parseProm(&buf)
	return vals["h_sum"], vals["h_count"]
}

func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body), nil
}

// parseProm maps each sample line of a Prometheus text exposition, series
// name with labels, to its value.
func parseProm(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// serveRun is one set-up fleet and its scratch directory.
type serveRun struct {
	dir   string
	nodes []*fleetNode
}

// ownerOf is the node owning key's prediction on the consistent-hash ring.
func ownerOf(nodes []*fleetNode, k serveKey, workers int) (int, error) {
	o, err := serveOptions(k, workers)
	if err != nil {
		return 0, err
	}
	owner := nodes[0].cl.Owner(o.CacheKey())
	for i, nd := range nodes {
		if nd.url == owner {
			return i, nil
		}
	}
	return 0, fmt.Errorf("owner %s of %s is not a fleet member", owner, k)
}

// setupFleet starts a fresh fleet and builds every popular key once on its
// owner, least popular first, so each owner's disk tier holds its share of
// the key space and its memory tier ends up holding the hot set. Workload
// traces land in the process-wide store, as in a zateld process.
func setupFleet(ctx context.Context, hc *http.Client, work string, rep int, popular []serveKey, workers int) (*serveRun, error) {
	resetCaches()
	dir := filepath.Join(work, fmt.Sprintf("fleet%d", rep))
	nodes, err := startFleet(dir, workers)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{dir: dir, nodes: nodes}
	// Least popular first, two at a time: the owners' memory tiers end up
	// holding the most popular keys.
	err = forEach(len(popular), workers, func(i int) error {
		k := popular[len(popular)-1-i]
		owner, err := ownerOf(nodes, k, workers)
		if err != nil {
			return err
		}
		r := post(ctx, hc, nodes[owner].url+"/v1/predict", k, false)
		if r.Err != nil || r.Status != http.StatusOK {
			return fmt.Errorf("prebuild %s: status %d: %v", k, r.Status, r.Err)
		}
		return nil
	})
	if err != nil {
		sr.stop()
		return nil, err
	}
	for _, nd := range nodes {
		nd.disk.Flush()
	}
	return sr, nil
}

func (sr *serveRun) stop() {
	stopFleet(sr.nodes)
	os.RemoveAll(sr.dir)
}

func runServeFleet(cfg runConfig) (*outcome, error) {
	frozen, err := loadFrozen()
	if err != nil {
		return nil, err
	}
	logf := func(f string, a ...any) { fmt.Fprintf(os.Stderr, "zbench: "+f+"\n", a...) }
	ctx := context.Background()
	popular, arr := serveSchedule(cfg.Seed, cfg.Seconds)
	// One HTTP/2 connection per node carries every request as its own
	// stream: the load uses two connections however many requests are in
	// flight.
	tr := &http.Transport{Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	hc := &http.Client{Transport: tr}
	defer hc.CloseIdleConnections()

	var sr *serveRun
	rep := 0
	setupS, err := repeatSetup(3, func() error {
		if sr != nil {
			sr.stop()
		}
		rep++
		var err error
		sr, err = setupFleet(ctx, hc, cfg.Work, rep, popular, cfg.Workers)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			sr.stop()
		}
	}()

	before, err := snapshotFleet(ctx, hc, sr.nodes)
	if err != nil {
		return nil, err
	}
	hw := startMeasuring()
	start := time.Now()
	resps := openLoop(arr, start, func(a arrival) response {
		return post(ctx, hc, sr.nodes[a.Node].url+"/v1/predict", a.Key, cfg.Trace && a.Trace)
	})
	peakHeap := hw.Stop()
	after, err := snapshotFleet(ctx, hc, sr.nodes)
	if err != nil {
		return nil, err
	}
	traceMiB := float64(store.Default().Snapshot().Bytes) / (1 << 20)
	sr.stop()
	stopped = true
	resetCaches()
	logf("%d requests offered at %.0f/s over %.0f s, %d builds", len(arr), serveRate, cfg.Seconds, int(math.Round(serveBuildShare*float64(len(arr)))))

	out := &outcome{Metrics: map[string]float64{"setup_s": setupS, "peak_heap_mib": peakHeap}, Attempted: len(arr)}
	good := verifyServed(ctx, arr, resps, frozen, cfg.Workers, out, logf)

	m := out.Metrics
	var lat, lateMs, svcMs []float64
	var last time.Duration
	for _, r := range resps {
		lat = append(lat, r.Latency().Seconds())
		lateMs = append(lateMs, float64(r.Sent-r.Due)/1e6)
		svcMs = append(svcMs, float64(r.Service())/1e6)
		last = max(last, r.Done)
	}
	logf("sent late by p50 %.3f / p99 %.3f ms; service time p50 %.3f / p99 %.3f ms",
		median(lateMs), percentile(lateMs, 99), median(svcMs), percentile(svcMs, 99))
	if !cfg.Trace {
		latencyMetrics(m, lat, 99, logf)
		m["ops_per_s"] = float64(good) / last.Seconds()
		return out, nil
	}

	byCache := map[string][]float64{}
	var traced, untraced []float64
	var layers layerTimes
	shed := 0
	for i, r := range resps {
		if r.Status == http.StatusServiceUnavailable {
			shed++
		}
		if r.Status != http.StatusOK {
			continue
		}
		byCache[r.Cache] = append(byCache[r.Cache], float64(r.Service())/1e6)
		if arr[i].Trace {
			traced = append(traced, r.Service().Seconds())
		} else {
			untraced = append(untraced, r.Service().Seconds())
		}
		if len(r.Trace) > 0 && r.Cache == "miss" {
			ps, ok, err := predictFromChrome(r.Trace)
			if err != nil {
				out.fail("request %d: unreadable trace: %v", i, err)
			} else if ok {
				layers.add(ps)
			}
		}
	}
	layers.fill(m, logf)
	if layers.n > 0 {
		m["gpu.group_runs"] = float64(layers.groups) / float64(layers.n)
	}
	d := func(k string) float64 { return after[k] - before[k] }
	ratio := func(num, den string) float64 {
		if d(den) == 0 {
			return 0
		}
		return d(num) / d(den)
	}
	m["rt.trace_mib"] = traceMiB
	m["service.hit_ms"] = mean(byCache["hit"])
	m["store.disk_ms"] = mean(byCache["disk"])
	m["store.build_ms"] = mean(byCache["miss"])
	m["store.mem_hit_ratio"] = ratio("mem_hits", "mem_lookups")
	m["store.disk_hits"] = d("disk_hits")
	m["store.evictions"] = d("evictions")
	m["store.builds"] = d("builds")
	m["store.coalesced"] = d("coalesced")
	m["service.admission_wait_s"] = ratio("wait_sum", "wait_n")
	m["service.shed"] = float64(shed)
	m["cluster.peer_ms"] = 1e3 * ratio("fetch_sum", "fetch_n")
	m["cluster.proxy_ms"] = 1e3 * ratio("proxy_sum", "proxy_n")
	m["cluster.peer_fetches"] = d("peer_fetches")
	m["cluster.local_fallbacks"] = d("local_fallbacks")
	m["loadgen.late_ms"] = mean(lateMs)
	m["obs.trace_overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)
	logf("served by tier: hit %d, disk %d, peer %d, coalesced %d, miss %d",
		len(byCache["hit"]), len(byCache["disk"]), len(byCache["peer"]), len(byCache["coalesced"]), len(byCache["miss"]))
	return out, nil
}

// verifyServed checks every reply: a 200 within the latency limit whose
// predicted values are bit-equal to core.PredictContext for the same key,
// under the same key digest. It scores the popular keys served against
// the frozen full-frame truth and returns how many replies passed.
func verifyServed(ctx context.Context, arr []arrival, resps []response, frozen frozenTable,
	workers int, out *outcome, logf func(string, ...any)) int {

	expected := map[serveKey]map[metrics.Metric]float64{}
	var acc accuracy
	good := 0
	for i, r := range resps {
		k := arr[i].Key
		switch {
		case r.Err != nil:
			out.fail("request %d (%s): %v", i, k, r.Err)
			continue
		case r.Status != http.StatusOK:
			out.fail("request %d (%s): status %d", i, k, r.Status)
			continue
		case r.Latency() > serveLimit:
			out.fail("request %d (%s): latency %v over the %v limit", i, k, r.Latency(), serveLimit)
			continue
		}
		want, ok := expected[k]
		if !ok {
			var err error
			want, err = expectedPrediction(ctx, k, r.Key, workers)
			if err != nil {
				out.fail("request %d (%s): %v", i, k, err)
				continue
			}
			expected[k] = want
			if !arr[i].Build {
				cfg, _ := service.ConfigByName(k.Config)
				truth, err := frozen.truth(k.Scene, cfg, serveRes)
				if err != nil {
					out.fail("%v", err)
				} else {
					acc.add(want, truth)
				}
			}
		}
		if len(r.Predicted) != len(want) || !samePrediction(want, byMetric(r.Predicted)) {
			out.fail("request %d (%s, served from %s): predicted %v, want %v", i, k, r.Cache, r.Predicted, want)
			continue
		}
		good++
	}
	acc.fill(out.Metrics)
	logf("verified %d distinct keys against core.PredictContext", len(expected))
	return good
}

// expectedPrediction predicts key directly and checks that zateld named
// the same artifact digest.
func expectedPrediction(ctx context.Context, k serveKey, servedKey string, workers int) (map[metrics.Metric]float64, error) {
	opts, err := serveOptions(k, workers)
	if err != nil {
		return nil, err
	}
	if d := opts.CacheKey().String(); d != servedKey {
		return nil, fmt.Errorf("served key %s, direct prediction key %s", servedKey, d)
	}
	res, err := core.PredictContext(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("direct prediction: %w", err)
	}
	return res.Predicted, nil
}

// byMetric maps Table-I metric names back to metrics.
func byMetric(named map[string]float64) map[metrics.Metric]float64 {
	out := make(map[metrics.Metric]float64, len(named))
	for _, m := range metrics.All() {
		if v, ok := named[m.String()]; ok {
			out[m] = v
		}
	}
	return out
}
