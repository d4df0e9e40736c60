package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"cinnamon/internal/cluster"
)

// BackendSpec names one cluster backend of the serving core. A backend is
// an independently-dialed cluster.Engine — its own worker set, its own
// failure domain. The core wraps each in its own circuit breaker and fails
// requests over between them.
type BackendSpec struct {
	// Name identifies the backend in /healthz and /metrics. Empty names
	// default to "c<index>".
	Name string
	// Engine is the dialed cluster coordinator. The core does not own it:
	// whoever built the engine closes it.
	Engine *cluster.Engine
}

// backend pairs one engine with its breaker and bookkeeping.
type backend struct {
	idx  int
	name string
	eng  *cluster.Engine
	brk  *breaker

	// warmedReconnects is the engine's Reconnects counter at the last
	// successful key warm-up: a delta means some worker re-handshook (its
	// key store is empty again), so the recovery loop re-pushes before the
	// first request pays the transfer.
	warmedReconnects atomic.Int64
}

// backendSet is the failure-domain layer between the serving core and N
// cluster engines: health-ranked backend selection, per-backend circuit
// breaking, failover accounting, and a background recovery loop that
// re-runs handshakes and re-pushes content-addressed tenant keys before a
// recovered backend takes traffic again.
type backendSet struct {
	all     []*backend
	primary atomic.Int32 // index of the backend that served last

	reg *Registry
	met *Metrics

	interval time.Duration // recovery probe pacing
	quit     chan struct{}
	done     chan struct{}
}

func newBackendSet(specs []BackendSpec, reg *Registry, met *Metrics, threshold int, cooldown time.Duration) *backendSet {
	s := &backendSet{
		reg:      reg,
		met:      met,
		interval: recoveryInterval(cooldown),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("c%d", i)
		}
		b := &backend{idx: i, name: name, eng: spec.Engine, brk: newBreaker(threshold, cooldown)}
		b.warmedReconnects.Store(-1) // force one warm-up pass at boot
		s.all = append(s.all, b)
	}
	go s.recoveryLoop()
	return s
}

// recoveryInterval paces the background recovery probes: a quarter of the
// breaker cooldown (so a cooled-down circuit is probed promptly), clamped
// to [50ms, 2s].
func recoveryInterval(cooldown time.Duration) time.Duration {
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	ival := cooldown / 4
	if ival < 50*time.Millisecond {
		ival = 50 * time.Millisecond
	}
	if ival > 2*time.Second {
		ival = 2 * time.Second
	}
	return ival
}

func (s *backendSet) close() {
	close(s.quit)
	<-s.done
}

// primaryBackend returns the backend that most recently served a request
// (the single-valued health/metrics fields keep reporting it, so a
// one-backend deployment looks exactly like it did before backend sets).
func (s *backendSet) primaryBackend() *backend {
	return s.all[int(s.primary.Load())]
}

// ranked returns the backends in failover order: fully-healthy engines
// first, then by healthy-worker count, with the current primary winning
// ties (stickiness — no failover ping-pong between two equals) and index
// order breaking the rest. Breaker gating happens at attempt time via
// Allow, not here, because Allow has half-open probe side effects.
func (s *backendSet) ranked() []*backend {
	out := make([]*backend, len(s.all))
	copy(out, s.all)
	prim := int(s.primary.Load())
	score := func(b *backend) (int, int) {
		healthy := b.eng.HealthyWorkers()
		full := 0
		if healthy == b.eng.NChips() && healthy > 0 {
			full = 1
		}
		return full, healthy
	}
	sort.SliceStable(out, func(i, j int) bool {
		fi, hi := score(out[i])
		fj, hj := score(out[j])
		if fi != fj {
			return fi > fj
		}
		if hi != hj {
			return hi > hj
		}
		if (out[i].idx == prim) != (out[j].idx == prim) {
			return out[i].idx == prim
		}
		return out[i].idx < out[j].idx
	})
	return out
}

// noteSuccess records which backend served a run. A switch of primary is
// one failover event: the counter tracks every time traffic moved to a
// different failure domain (including moving back after recovery).
func (s *backendSet) noteSuccess(b *backend) {
	b.brk.Success()
	old := s.primary.Swap(int32(b.idx))
	if int(old) != b.idx {
		s.met.Failovers.Add(1)
	}
}

// recoveryLoop is the background path back to eligibility for a backend
// that failed: it re-runs the worker handshakes (EnsureKeys dials dropped
// links) and re-pushes the *resident* tenants' evaluation keys — the
// cache's working set, not the whole key population; spilled tenants
// re-push lazily on next use and the content-addressed push skips keys
// the current sessions already hold — then closes the breaker, so the
// first request after recovery pays neither handshake nor key-transfer
// latency for the hot set. Probes back off exponentially with jitter
// while a backend stays dead.
func (s *backendSet) recoveryLoop() {
	defer close(s.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	next := make([]time.Time, len(s.all))
	delay := make([]time.Duration, len(s.all))
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		for i, b := range s.all {
			healthy := b.eng.HealthyWorkers() == b.eng.NChips()
			reconnects := int64(0)
			if snap := b.eng.Snapshot(); snap != nil {
				reconnects = snap.Reconnects
			}
			needsWarm := healthy && reconnects != b.warmedReconnects.Load()
			if b.brk.State() == circuitClosed && !needsWarm {
				delay[i], next[i] = 0, time.Time{}
				continue
			}
			if !next[i].IsZero() && time.Now().Before(next[i]) {
				continue
			}
			err := b.eng.EnsureKeys(s.reg.ResidentKeys()...)
			if err == nil && b.eng.Healthy() {
				b.warmedReconnects.Store(reconnects)
				b.brk.Success()
				delay[i], next[i] = 0, time.Time{}
				continue
			}
			if delay[i] == 0 {
				delay[i] = s.interval
			} else {
				delay[i] *= 2
			}
			if max := 8 * s.interval; delay[i] > max {
				delay[i] = max
			}
			jittered := delay[i]/2 + time.Duration(rng.Int63n(int64(delay[i]/2)+1))
			next[i] = time.Now().Add(jittered)
		}
	}
}

// BackendHealth is one backend's row in /healthz and /metrics.
type BackendHealth struct {
	Name    string `json:"name"`
	Primary bool   `json:"primary"`
	Workers int    `json:"workers"`
	Healthy int    `json:"workers_healthy"`
	Circuit string `json:"circuit_state"`
	Opens   int64  `json:"circuit_opens"`
	// LastHandshakeMs is the age of the backend's most recent successful
	// worker handshake in milliseconds; -1 before any handshake.
	LastHandshakeMs int64 `json:"last_handshake_age_ms"`
}

// BackendSnapshot is the /metrics view: the health row plus the backend's
// full cluster transport counters.
type BackendSnapshot struct {
	BackendHealth
	Cluster *cluster.Snapshot `json:"cluster"`
}

func (b *backend) health(primary bool) BackendHealth {
	h := BackendHealth{
		Name:            b.name,
		Primary:         primary,
		Workers:         b.eng.NChips(),
		Healthy:         b.eng.HealthyWorkers(),
		Circuit:         b.brk.State(),
		Opens:           b.brk.Opens(),
		LastHandshakeMs: -1,
	}
	if hs := b.eng.LastHandshake(); !hs.IsZero() {
		h.LastHandshakeMs = time.Since(hs).Milliseconds()
	}
	return h
}

// healthList enumerates every backend for /healthz.
func (s *backendSet) healthList() []BackendHealth {
	prim := int(s.primary.Load())
	out := make([]BackendHealth, len(s.all))
	for i, b := range s.all {
		out[i] = b.health(b.idx == prim)
	}
	return out
}

// snapshots enumerates every backend with transport counters for /metrics.
func (s *backendSet) snapshots() []BackendSnapshot {
	prim := int(s.primary.Load())
	out := make([]BackendSnapshot, len(s.all))
	for i, b := range s.all {
		out[i] = BackendSnapshot{BackendHealth: b.health(b.idx == prim), Cluster: b.eng.Snapshot()}
	}
	return out
}
