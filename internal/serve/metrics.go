package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"cinnamon/internal/cluster"
	"cinnamon/internal/telemetry"
)

// Histogram is the shared streaming latency histogram (see
// internal/telemetry); aliased here so the serving API is unchanged.
type Histogram = telemetry.Histogram

// LatencySummary is the JSON-facing quantile snapshot, in milliseconds.
type LatencySummary = telemetry.LatencySummary

// ProgramMetrics tracks one program's counters and latencies.
type ProgramMetrics struct {
	Completed atomic.Int64
	Errors    atomic.Int64
	Latency   Histogram
}

// Metrics is the serving-core metrics surface. All fields are updated
// with atomics; Snapshot() is safe to call concurrently with traffic.
type Metrics struct {
	Received  atomic.Int64 // requests accepted into Submit
	Completed atomic.Int64 // responses delivered
	Rejected  atomic.Int64 // load-shed (queue full / shutting down)
	Timeouts  atomic.Int64 // request context expired before completion
	Errors    atomic.Int64 // execution failures

	QueueDepth atomic.Int64 // requests currently queued in batchers

	Batches         atomic.Int64 // worker batch pickups
	BatchedRequests atomic.Int64 // requests across those runs

	Latency Histogram

	// EmulatorFallbacks counts cluster-mode requests replayed on the
	// coordinator's local executor because no backend completed them. The
	// name predates the single executor; scripts, the chaos soak report and
	// the benchmark read it as emulator_fallbacks.
	EmulatorFallbacks atomic.Int64

	// Panics counts recovered execution panics (each fails its requests
	// typed with ErrInternal; the worker pool survives).
	Panics atomic.Int64

	// Bootstrap service counters: total ciphertexts refreshed, ticks run,
	// tick wall time, and a batch-size histogram (index = tick size,
	// clamped to the last bucket).
	Bootstraps       atomic.Int64
	BootstrapBatches atomic.Int64
	BootstrapMs      Histogram
	batchSizes       [17]atomic.Int64

	// Session counters.
	SessionsActive  atomic.Int64
	SessionsCreated atomic.Int64
	SessionsEvicted atomic.Int64
	SessionSteps    atomic.Int64

	// Failure-domain counters: Failovers counts primary-backend switches
	// (a run completing on a different failure domain than the last),
	// SessionRestores sessions replayed from the checkpoint log at boot,
	// SessionLogErrors failed checkpoint appends (the step still succeeds;
	// durability of that step is lost until the next one).
	Failovers        atomic.Int64
	SessionRestores  atomic.Int64
	SessionLogErrors atomic.Int64

	programs map[string]*ProgramMetrics // fixed at startup, values atomic

	// clusterSource, when set, supplies the cluster transport counters for
	// Snapshot (set by NewCore when cluster mode is on); circuitSource
	// supplies the primary breaker's state and open count; backendsSource
	// enumerates every backend with its own circuit and transport view;
	// keyCacheSource snapshots the budgeted tenant-key tier.
	clusterSource  func() *cluster.Snapshot
	circuitSource  func() (state string, opens int64)
	backendsSource func() []BackendSnapshot
	keyCacheSource func() KeyCacheStats
}

func newMetrics(programNames []string) *Metrics {
	m := &Metrics{programs: map[string]*ProgramMetrics{}}
	for _, name := range programNames {
		m.programs[name] = &ProgramMetrics{}
	}
	return m
}

// ProgramSnapshot is one program's JSON view.
type ProgramSnapshot struct {
	Completed int64          `json:"completed"`
	Errors    int64          `json:"errors"`
	Latency   LatencySummary `json:"latency"`
}

// Snapshot is the JSON view served at GET /metrics.
type Snapshot struct {
	Received          int64                      `json:"received"`
	Completed         int64                      `json:"completed"`
	Rejected          int64                      `json:"rejected"`
	Timeouts          int64                      `json:"timeouts"`
	Errors            int64                      `json:"errors"`
	QueueDepth        int64                      `json:"queue_depth"`
	Batches           int64                      `json:"batches"`
	BatchedRequests   int64                      `json:"batched_requests"`
	AvgBatchOccupancy float64                    `json:"avg_batch_occupancy"`
	Latency           LatencySummary             `json:"latency"`
	Programs          map[string]ProgramSnapshot `json:"programs"`

	// Cluster holds the scale-out transport counters when the core runs in
	// cluster mode (bytes, collectives, latency quantiles, reconnects).
	// With multiple backends it reports the current primary; Backends
	// enumerates every failure domain with its own circuit state, opens
	// count, last-handshake age and transport counters.
	Cluster           *cluster.Snapshot `json:"cluster,omitempty"`
	Backends          []BackendSnapshot `json:"backends,omitempty"`
	EmulatorFallbacks int64             `json:"emulator_fallbacks,omitempty"`
	Failovers         int64             `json:"failovers_total"`

	Panics       int64  `json:"panics"`
	CircuitState string `json:"circuit_state,omitempty"`
	CircuitOpens int64  `json:"circuit_opens,omitempty"`

	// Bootstrap service: BootstrapBatchSize maps tick size → tick count
	// (the "bootstrap_batch_size" histogram; sizes ≥ 16 share the last
	// bucket), BootstrapMs the per-tick wall-time quantiles.
	Bootstraps         int64            `json:"bootstraps_total"`
	BootstrapBatches   int64            `json:"bootstrap_batches"`
	BootstrapBatchSize map[string]int64 `json:"bootstrap_batch_size,omitempty"`
	BootstrapMs        *LatencySummary  `json:"bootstrap_ms,omitempty"`

	SessionsActive  int64 `json:"sessions_active"`
	SessionsCreated int64 `json:"sessions_created"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	SessionSteps    int64 `json:"session_steps"`

	// Durable-session counters: restores replayed from the checkpoint log
	// at boot, and failed checkpoint appends since.
	SessionRestores  int64 `json:"session_restores_total"`
	SessionLogErrors int64 `json:"session_log_errors,omitempty"`

	// KeyCache reports the budgeted tenant-key tier: resident/spilled
	// tenant counts, resident bytes vs budget, hit/miss/eviction counters,
	// prefetch fires and cold-miss stalls with their latency quantiles.
	// Worker-side re-pushes after an eviction appear in the cluster
	// transport counters (key_evicts / key_repushes).
	KeyCache *KeyCacheStats `json:"key_cache,omitempty"`
}

// ObserveBootstrapBatch records one batcher tick.
func (m *Metrics) ObserveBootstrapBatch(size int, d time.Duration) {
	m.Bootstraps.Add(int64(size))
	m.BootstrapBatches.Add(1)
	m.BootstrapMs.Observe(d)
	idx := size
	if idx >= len(m.batchSizes) {
		idx = len(m.batchSizes) - 1
	}
	m.batchSizes[idx].Add(1)
}

// Snapshot captures the current metric values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Received:        m.Received.Load(),
		Completed:       m.Completed.Load(),
		Rejected:        m.Rejected.Load(),
		Timeouts:        m.Timeouts.Load(),
		Errors:          m.Errors.Load(),
		QueueDepth:      m.QueueDepth.Load(),
		Batches:         m.Batches.Load(),
		BatchedRequests: m.BatchedRequests.Load(),
		Latency:         m.Latency.Summary(),
		Programs:        map[string]ProgramSnapshot{},
	}
	if s.Batches > 0 {
		s.AvgBatchOccupancy = float64(s.BatchedRequests) / float64(s.Batches)
	}
	s.Panics = m.Panics.Load()
	if m.clusterSource != nil {
		s.Cluster = m.clusterSource()
		s.EmulatorFallbacks = m.EmulatorFallbacks.Load()
	}
	if m.circuitSource != nil {
		s.CircuitState, s.CircuitOpens = m.circuitSource()
	}
	if m.backendsSource != nil {
		s.Backends = m.backendsSource()
	}
	if m.keyCacheSource != nil {
		kc := m.keyCacheSource()
		s.KeyCache = &kc
	}
	s.Failovers = m.Failovers.Load()
	s.SessionRestores = m.SessionRestores.Load()
	s.SessionLogErrors = m.SessionLogErrors.Load()
	for name, pm := range m.programs {
		s.Programs[name] = ProgramSnapshot{
			Completed: pm.Completed.Load(),
			Errors:    pm.Errors.Load(),
			Latency:   pm.Latency.Summary(),
		}
	}
	s.Bootstraps = m.Bootstraps.Load()
	s.BootstrapBatches = m.BootstrapBatches.Load()
	if s.BootstrapBatches > 0 {
		sum := m.BootstrapMs.Summary()
		s.BootstrapMs = &sum
		s.BootstrapBatchSize = map[string]int64{}
		for i := range m.batchSizes {
			if n := m.batchSizes[i].Load(); n > 0 {
				key := fmt.Sprintf("%d", i)
				if i == len(m.batchSizes)-1 {
					key = fmt.Sprintf("%d+", i)
				}
				s.BootstrapBatchSize[key] = n
			}
		}
	}
	s.SessionsActive = m.SessionsActive.Load()
	s.SessionsCreated = m.SessionsCreated.Load()
	s.SessionsEvicted = m.SessionsEvicted.Load()
	s.SessionSteps = m.SessionSteps.Load()
	return s
}
