package cluster

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"

	"zatel/internal/runner"
)

// ProbeFunc checks one peer's liveness; nil error means healthy. The
// default implementation GETs the peer's /healthz. Tests inject their own
// to script recoveries deterministically.
type ProbeFunc func(ctx context.Context, baseURL string) error

// ProbeConfig tunes the health prober. Zero values select sane defaults.
type ProbeConfig struct {
	// Interval is how often the prober wakes to re-check unhealthy peers
	// (0 = 2s). Negative disables the background goroutine entirely; tests
	// then drive probing with CheckNow.
	Interval time.Duration
	// Backoff is the delay before the first re-probe of a freshly failed
	// peer (0 = Interval); each further failure doubles it up to MaxBackoff
	// (0 = 8×Backoff), plus up to 50% seeded jitter so a fleet that lost
	// one node does not re-probe it in lockstep.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed roots the jitter stream; the delay before attempt k on peer i is
	// a pure function of (Seed, i, k), mirroring internal/faults — two runs
	// with one seed schedule identical probes.
	Seed uint64
	// Timeout bounds each probe call (0 = 1s).
	Timeout time.Duration
	// Probe overrides the liveness check (nil = HTTP GET /healthz).
	Probe ProbeFunc
}

func (c *ProbeConfig) fillDefaults() {
	if c.Interval == 0 {
		c.Interval = 2 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = c.Interval
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * c.Backoff
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
}

// peerHealth is one peer's probe state. failures counts consecutive
// failures since the last success; nextProbe gates re-checks so a dead
// peer costs one bounded probe per backoff window, not one per request.
type peerHealth struct {
	healthy   bool
	failures  int
	nextProbe time.Time
}

// Prober tracks per-peer health for the cluster: fetch and proxy failures
// mark a peer unhealthy, a background loop re-probes unhealthy peers on a
// seeded exponential-backoff schedule, and a probe success restores them.
// Peers start healthy — the first request discovers a dead peer and
// degrades, it does not wait for a probe.
type Prober struct {
	cfg   ProbeConfig
	peers []string // sorted; index keys the jitter stream

	mu    sync.Mutex
	state map[string]*peerHealth

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newProber starts a prober over the peer list (self excluded by the
// caller; a node does not probe itself).
func newProber(peers []string, cfg ProbeConfig) *Prober {
	cfg.fillDefaults()
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	p := &Prober{
		cfg:   cfg,
		peers: sorted,
		state: make(map[string]*peerHealth, len(sorted)),
		stop:  make(chan struct{}),
	}
	for _, peer := range sorted {
		p.state[peer] = &peerHealth{healthy: true}
	}
	if cfg.Interval > 0 && cfg.Probe != nil {
		p.wg.Add(1)
		go p.run()
	}
	return p
}

// Healthy reports whether the peer is currently considered reachable.
// Unknown peers (including self) read as healthy.
func (p *Prober) Healthy(peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[peer]
	return !ok || st.healthy
}

// HealthyCount returns how many tracked peers are currently healthy.
func (p *Prober) HealthyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, st := range p.state {
		if st.healthy {
			n++
		}
	}
	return n
}

// MarkFailure records a failed interaction with peer (fetch, proxy or
// probe): the peer turns unhealthy and its next probe is scheduled one
// backoff step out.
func (p *Prober) MarkFailure(peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[peer]
	if !ok {
		return
	}
	if st.healthy {
		slog.Warn("cluster: peer marked unhealthy", "peer", peer)
	}
	st.healthy = false
	st.failures++
	st.nextProbe = time.Now().Add(p.backoffFor(peer, st.failures))
}

// MarkHealthy records a successful interaction with peer, restoring it.
func (p *Prober) MarkHealthy(peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[peer]
	if !ok {
		return
	}
	if !st.healthy {
		slog.Info("cluster: peer recovered", "peer", peer)
	}
	st.healthy = true
	st.failures = 0
}

// backoffFor returns the deterministic re-probe delay before attempt k on
// peer: runner.Backoff keyed (Seed, peer index, k). p.mu held.
func (p *Prober) backoffFor(peer string, k int) time.Duration {
	idx := sort.SearchStrings(p.peers, peer)
	return runner.Backoff(p.cfg.Backoff, p.cfg.MaxBackoff, p.cfg.Seed, idx, k)
}

// CheckNow synchronously probes every unhealthy peer whose backoff window
// has elapsed (ignoring the window when force is set). Tests drive
// recovery through here; the background loop calls it each tick.
func (p *Prober) CheckNow(force bool) {
	if p.cfg.Probe == nil {
		return
	}
	now := time.Now()
	var due []string
	p.mu.Lock()
	for peer, st := range p.state {
		if !st.healthy && (force || !now.Before(st.nextProbe)) {
			due = append(due, peer)
		}
	}
	p.mu.Unlock()
	sort.Strings(due)
	for _, peer := range due {
		ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
		err := p.cfg.Probe(ctx, peer)
		cancel()
		if err != nil {
			p.MarkFailure(peer)
		} else {
			p.MarkHealthy(peer)
		}
	}
}

func (p *Prober) run() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.CheckNow(false)
		}
	}
}

// Close stops the background probe loop.
func (p *Prober) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}
