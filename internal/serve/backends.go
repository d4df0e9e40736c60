package serve

import (
	"fmt"
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
// cluster engines: sticky-primary backend selection, per-backend circuit
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

// ranked returns the backends in failover order: the current primary
// first, then the rest by index. The primary is sticky — it keeps traffic
// until it fails, even after a wider or lower-indexed backend recovers —
// so there is no failover ping-pong. Health and breaker gating happen at
// attempt time (Healthy, Allow), not here, because Allow has half-open
// probe side effects.
func (s *backendSet) ranked() []*backend {
	prim := s.primaryBackend()
	out := append(make([]*backend, 0, len(s.all)), prim)
	for _, b := range s.all {
		if b != prim {
			out = append(out, b)
		}
	}
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
// that failed — a worker down, an open circuit, or a re-handshake whose
// key store is empty. It re-runs the worker handshakes (EnsureKeys dials
// dropped links) and re-pushes the *resident* tenants' evaluation keys —
// the cache's working set, not the whole key population; spilled tenants
// re-push lazily on next use and the content-addressed push skips keys
// the current sessions already hold — then closes the breaker, so the
// first request after recovery pays neither handshake nor key-transfer
// latency for the hot set. While a backend stays dead its redials follow
// each link's own jittered exponential backoff (cluster.Options
// RetryBackoff..RedialBackoffMax): a probe inside a link's backoff window
// fails fast without dialing, so this loop keeps no schedule of its own.
func (s *backendSet) recoveryLoop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		for _, b := range s.all {
			healthy := b.eng.HealthyWorkers() == b.eng.NChips()
			reconnects := int64(0)
			if snap := b.eng.Snapshot(); snap != nil {
				reconnects = snap.Reconnects
			}
			if healthy && reconnects == b.warmedReconnects.Load() && b.brk.State() == circuitClosed {
				continue
			}
			if err := b.eng.EnsureKeys(s.reg.ResidentKeys()...); err == nil && b.eng.Healthy() {
				b.warmedReconnects.Store(reconnects)
				b.brk.Success()
			}
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
