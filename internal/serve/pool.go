package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/parallel"
	"cinnamon/internal/sched"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrUnknownProgram = errors.New("serve: unknown program")
	ErrUnknownTenant  = errors.New("serve: unknown tenant (register evaluation keys first)")
	ErrMissingKeys    = errors.New("serve: tenant is missing required evaluation keys")
	ErrOverloaded     = errors.New("serve: overloaded, request shed")
	ErrShuttingDown   = errors.New("serve: shutting down")
	ErrBadRequest     = errors.New("serve: bad request")
	// ErrInternal marks a request that died to a recovered panic: the
	// request fails typed (500) while every other request keeps serving.
	ErrInternal = errors.New("serve: internal error")
)

// Config tunes the serving core.
type Config struct {
	// Deprecated: ignored; requests are no longer batched.
	MaxBatch int
	// Deprecated: ignored; requests are no longer batched.
	BatchWait time.Duration
	// Workers is the number of executor slots: how many one-shots of
	// non-Bootstrapped programs execute at once, each on its caller's
	// goroutine. Default GOMAXPROCS.
	Workers int
	// LimbWorkers sets the process-wide limb-parallel worker pool used by
	// ring/keyswitch arithmetic inside every executor run (see
	// internal/parallel). 0 leaves the pool at its GOMAXPROCS default;
	// setting it to 1 trades per-request latency for throughput when
	// Workers already saturates the cores.
	LimbWorkers int
	// Deprecated: ignored; AdmissionLimit bounds the requests in the core.
	QueueDepth int
	// RequestTimeout bounds a request's total time in the system when its
	// context has no deadline of its own. Default 10s.
	RequestTimeout time.Duration

	// AdmissionLimit bounds how many requests may be inside the core at
	// once (waiting for an executor slot or executing). Beyond it Submit
	// and SessionStep shed immediately with ErrOverloaded, so overload
	// produces fast 429s instead of an unbounded goroutine pileup.
	// Default 1024.
	AdmissionLimit int

	// Backends executes requests' keyswitches over a set of
	// independently-dialed cluster engines — separate failure domains,
	// each limb-partitioned across its worker processes. Each backend gets
	// its own circuit breaker (CircuitThreshold/CircuitCooldown); requests
	// try the primary first and fail over on error, ErrDegraded or an open
	// circuit, counted in Metrics.Failovers. When no backend can serve, the
	// request replays on the coordinator's local executor (counted in
	// Metrics.EmulatorFallbacks) unless RequireCluster. A background
	// recovery loop re-runs worker handshakes and re-pushes every resident
	// tenant's keys before a recovered backend is eligible again.
	Backends []BackendSpec

	// SessionLog, when non-empty, is the path of the durable session
	// checkpoint log: an append-only CRC-framed record stream (the wire v2
	// codec discipline) snapshotting each session's serialized ciphertext
	// state and step counter after every step. On boot the log is replayed
	// — tolerating a truncated or corrupt tail and skipping TTL-expired
	// sessions — so a coordinator restart resumes in-flight sessions
	// bit-exactly. Use NewDurableCore to surface open/replay errors.
	SessionLog string

	// RequireCluster turns off the local replay: when no backend can serve
	// (every one degraded or behind an open circuit) requests fail typed
	// with cluster.ErrDegraded (503) instead of silently costing
	// coordinator CPU. Useful when the coordinator cannot keep up with the
	// cluster's capacity and local replay would just be a slower outage.
	RequireCluster bool

	// CircuitThreshold is how many consecutive cluster-run failures open
	// the circuit breaker (half-open probes after CircuitCooldown).
	// Default 5.
	CircuitThreshold int
	// CircuitCooldown is how long an open circuit waits before admitting a
	// probe run. Default 5s.
	CircuitCooldown time.Duration

	// BootstrapBatch caps how many refresh-pending ciphertexts one
	// bootstrap tick serves (they share the BSGS transform pass across
	// programs, sessions and tenants). Default 8.
	BootstrapBatch int
	// BootstrapWait is how long a non-full bootstrap tick waits for
	// company. Default 25ms (a tick costs hundreds of ms; waiting a few
	// tens buys cross-request amortization nearly free).
	BootstrapWait time.Duration

	// SessionTTL evicts encrypted sessions idle longer than this.
	// Default 5m.
	SessionTTL time.Duration
	// MaxSessions bounds live sessions; creation beyond it sheds with
	// ErrOverloaded. Default 1024.
	MaxSessions int

	// testPreRun, when non-nil, runs at the top of every execution inside
	// execute's panic recovery — the lever tests use to stretch, park or
	// panic a run.
	testPreRun func(program string)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.AdmissionLimit <= 0 {
		c.AdmissionLimit = 1024
	}
	if c.BootstrapBatch <= 0 {
		c.BootstrapBatch = 8
	}
	if c.BootstrapWait <= 0 {
		c.BootstrapWait = 25 * time.Millisecond
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return c
}

// Core is the serving runtime: registry + admission + executor slots +
// metrics. Every request runs on its caller's goroutine.
type Core struct {
	cfg Config
	reg *Registry
	met *Metrics

	// backends is the failure-domain layer over the configured cluster
	// engines (nil in local-only mode): per-backend circuit breakers,
	// health-ranked failover, background recovery. admission bounds the
	// requests concurrently inside the core (Config.AdmissionLimit), slots
	// the one-shots executing at once (Config.Workers).
	backends  *backendSet
	admission chan struct{}
	slots     chan struct{}

	// stateMu orders admit's in-flight registration against Close flipping
	// draining: once draining is set no request can join inflight, so
	// Close's wait observes every admitted request.
	stateMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	// evictHook is this core's registry eviction hook (nil without
	// backends). Close detaches it, then waits on evictWG for the
	// worker-key evictions it started; evictMu orders those starts
	// against the detach so none begins after the wait.
	evictHook   *func(map[string]*ckks.EvalKey)
	evictMu     sync.Mutex
	evictClosed bool
	evictWG     sync.WaitGroup

	// boot is the cross-tenant bootstrap batcher (nil unless the registry
	// has a bootstrap Precomp).
	boot     *sched.Batcher
	sessions *sessionStore
}

// NewCore starts a serving core over an already-compiled registry. It
// panics if Config.SessionLog is set but cannot be opened or replayed —
// use NewDurableCore to handle that error.
func NewCore(reg *Registry, cfg Config) *Core {
	c, err := NewDurableCore(reg, cfg)
	if err != nil {
		panic(fmt.Sprintf("serve: %v", err))
	}
	return c
}

// NewDurableCore is NewCore returning the session-log open/replay error
// instead of panicking. With Config.SessionLog unset it never fails.
func NewDurableCore(reg *Registry, cfg Config) (*Core, error) {
	cfg = cfg.withDefaults()
	if cfg.LimbWorkers > 0 {
		parallel.SetWorkers(cfg.LimbWorkers)
	}
	c := &Core{
		cfg:       cfg,
		reg:       reg,
		met:       newMetrics(reg.ProgramNames()),
		admission: make(chan struct{}, cfg.AdmissionLimit),
		slots:     make(chan struct{}, cfg.Workers),
	}
	if len(cfg.Backends) > 0 {
		c.backends = newBackendSet(cfg.Backends, reg, c.met, cfg.CircuitThreshold, cfg.CircuitCooldown)
		c.met.clusterSource = func() *cluster.Snapshot { return c.backends.primaryBackend().eng.Snapshot() }
		c.met.circuitSource = func() (string, int64) {
			p := c.backends.primaryBackend()
			return p.brk.State(), p.brk.Opens()
		}
		c.met.backendsSource = c.backends.snapshots
		hook := c.evictWorkerKeys
		c.evictHook = &hook
		reg.evictHook.Store(c.evictHook)
	}
	c.met.keyCacheSource = reg.KeyCacheStats
	if reg.Pre != nil {
		c.boot = sched.NewBatcher(cfg.BootstrapBatch, cfg.BootstrapWait)
		c.boot.OnBatch = c.met.ObserveBootstrapBatch
	}
	c.sessions = newSessionStore(c, cfg.SessionTTL, cfg.MaxSessions)
	if cfg.SessionLog != "" {
		if err := c.sessions.enableLog(cfg.SessionLog); err != nil {
			if c.backends != nil {
				c.backends.close()
			}
			c.sessions.close()
			return nil, fmt.Errorf("session log %s: %w", cfg.SessionLog, err)
		}
	}
	return c, nil
}

// Registry exposes the compiled program registry.
func (c *Core) Registry() *Registry { return c.reg }

// Metrics exposes the metrics surface.
func (c *Core) Metrics() *Metrics { return c.met }

// Health is the live state /healthz reports.
type Health struct {
	// OK is false when the core cannot currently serve: every cluster
	// backend is fully down and RequireCluster forbids the local replay.
	OK       bool   `json:"ok"`
	Programs int    `json:"programs"`
	Draining bool   `json:"draining"`
	Cluster  bool   `json:"cluster"` // cluster mode configured
	Workers  int    `json:"workers,omitempty"`
	Healthy  int    `json:"workers_healthy,omitempty"`
	Circuit  string `json:"circuit_state,omitempty"`

	// Backends enumerates every cluster backend: circuit state, opens
	// count, worker health and last-handshake age per failure domain. The
	// single-valued Workers/Healthy/Circuit fields above keep reporting
	// the current primary. Failovers counts primary switches.
	Backends  []BackendHealth `json:"backends,omitempty"`
	Failovers int64           `json:"failovers_total,omitempty"`

	// KeyCache summarizes the budgeted tenant-key tier: resident vs
	// spilled tenants, resident bytes against the budget, and the
	// hit/miss/eviction/prefetch counters.
	KeyCache *KeyCacheStats `json:"key_cache,omitempty"`

	// Bootstrap reports the refresh service: enabled, the level circuits
	// resume at after a refresh, and the live encrypted-session count.
	Bootstrap          bool `json:"bootstrap"`
	BootstrapExitLevel int  `json:"bootstrap_exit_level,omitempty"`
	SessionsActive     int  `json:"sessions_active"`
	// SessionsRestored counts sessions replayed from the checkpoint log at
	// boot (nonzero only after a coordinator restart with durable sessions).
	SessionsRestored int64 `json:"session_restores_total,omitempty"`
}

// Health reports whether the core can serve right now. With cluster
// backends and RequireCluster, zero healthy workers across ALL failure
// domains means requests cannot succeed — /healthz then turns 503 so load
// balancers stop routing here. One backend down with another healthy stays
// OK: that is what failover is for.
func (c *Core) Health() Health {
	h := Health{OK: true, Programs: len(c.reg.ProgramNames())}
	c.stateMu.RLock()
	h.Draining = c.draining
	c.stateMu.RUnlock()
	if c.backends != nil {
		h.Cluster = true
		p := c.backends.primaryBackend()
		h.Workers = p.eng.NChips()
		h.Healthy = p.eng.HealthyWorkers()
		h.Circuit = p.brk.State()
		h.Backends = c.backends.healthList()
		h.Failovers = c.met.Failovers.Load()
		totalHealthy := 0
		for _, bh := range h.Backends {
			totalHealthy += bh.Healthy
		}
		if totalHealthy == 0 && c.cfg.RequireCluster {
			h.OK = false
		}
	}
	h.SessionsRestored = c.met.SessionRestores.Load()
	kc := c.reg.KeyCacheStats()
	h.KeyCache = &kc
	if c.reg.Pre != nil {
		h.Bootstrap = true
		h.BootstrapExitLevel = c.reg.Pre.ExitLevel()
	}
	h.SessionsActive = c.SessionCount()
	if h.Draining {
		h.OK = false
	}
	return h
}

// Submit runs one encrypted request on the program's executor, on the
// caller's goroutine, and blocks until its response, its context
// deadline, or load shedding.
func (c *Core) Submit(ctx context.Context, program, tenant string, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	ctx, cancel, err := c.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer c.leave(cancel)
	prog, ok := c.reg.Program(program)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, program)
	}
	// Admission validates against the tenant's always-resident key-name
	// metadata — never the decoded keys — so a spilled tenant does not
	// block here; the async prefetch below warms the decoded map while the
	// request waits for its executor slot.
	names, ok := c.reg.TenantKeyNames(tenant)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if missing := prog.MissingKeyNames(names); len(missing) > 0 {
		return nil, fmt.Errorf("%w: %v", ErrMissingKeys, missing)
	}
	if ct.Level() != prog.InLevel {
		return nil, fmt.Errorf("%w: ciphertext at level %d, program expects %d", ErrBadRequest, ct.Level(), prog.InLevel)
	}
	def := c.reg.Params.DefaultScale()
	if math.Abs(ct.Scale-def) > 1e-6*def {
		return nil, fmt.Errorf("%w: ciphertext scale %g, program expects %g", ErrBadRequest, ct.Scale, def)
	}
	c.reg.PrefetchTenant(tenant)
	return c.run(ctx, prog, tenant, ct, !prog.Bootstrapped, nil)
}

// admit is every executing request's way into the core (Submit and
// SessionStep). It takes an admission token, shedding with ErrOverloaded
// beyond AdmissionLimit; refuses with ErrShuttingDown once Close has
// begun; registers the request with the in-flight group Close drains; and
// bounds a deadline-less ctx by RequestTimeout. A nil error must be paired
// with a deferred leave(cancel).
func (c *Core) admit(ctx context.Context) (context.Context, context.CancelFunc, error) {
	c.met.Received.Add(1)
	select {
	case c.admission <- struct{}{}:
	default:
		c.met.Rejected.Add(1)
		return nil, nil, fmt.Errorf("%w: admission queue full", ErrOverloaded)
	}
	c.stateMu.RLock()
	if c.draining {
		c.stateMu.RUnlock()
		<-c.admission
		c.met.Rejected.Add(1)
		return nil, nil, ErrShuttingDown
	}
	c.inflight.Add(1)
	c.stateMu.RUnlock()
	var cancel context.CancelFunc
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
	}
	return ctx, cancel, nil
}

// leave releases what admit took.
func (c *Core) leave(cancel context.CancelFunc) {
	if cancel != nil {
		cancel()
	}
	c.inflight.Done()
	<-c.admission
}

// Close drains the runtime: no new requests are admitted, every admitted
// one (waiting for a slot or executing) completes, and then the bootstrap
// batcher, the session store and the backends stop. It returns early with
// the context's error if draining exceeds the deadline.
func (c *Core) Close(ctx context.Context) error {
	c.stateMu.Lock()
	already := c.draining
	c.draining = true
	c.stateMu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		// In-flight requests drain before the bootstrap batcher they
		// refresh through goes away.
		c.inflight.Wait()
		if c.boot != nil {
			c.boot.Close()
		}
		c.sessions.close()
		if c.backends != nil {
			c.reg.evictHook.CompareAndSwap(c.evictHook, nil)
			c.evictMu.Lock()
			c.evictClosed = true
			c.evictMu.Unlock()
			c.evictWG.Wait()
			c.backends.close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// evictWorkerKeys is the registry eviction hook: a coordinator-side
// eviction invalidates worker residency on every backend (best-effort, off
// the serving path), so workers drop the keys and the next keyswitch
// lazily re-pushes them. After Close it does nothing.
func (c *Core) evictWorkerKeys(keys map[string]*ckks.EvalKey) {
	evs := make([]*ckks.EvalKey, 0, len(keys))
	for _, k := range keys {
		if k != nil {
			evs = append(evs, k)
		}
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	if c.evictClosed {
		return
	}
	c.evictWG.Add(1)
	go func() {
		defer c.evictWG.Done()
		for _, b := range c.backends.all {
			b.eng.EvictKeys(evs...)
		}
	}()
}

// run executes one admitted request on prog's executor and counts its
// outcome once: a request ended by its own context in Timeouts, any other
// execution failure in Errors, a success in Completed and the latency
// histograms. A one-shot of a non-Bootstrapped program (slot) first waits
// for an executor slot; deep one-shots and session steps are bounded by
// admission alone, so their refreshes keep coalescing into shared
// bootstrap ticks. The tenant's keys resolve after the slot, so a cold
// tenant's reload stalls only this request. commit, when non-nil, runs on
// success before the latency is taken (a session step installs and
// checkpoints its new state there).
func (c *Core) run(ctx context.Context, prog *Program, tenant string, ct *ckks.Ciphertext, slot bool, commit func(*ckks.Ciphertext)) (*ckks.Ciphertext, error) {
	start := time.Now()
	if slot {
		if !c.takeSlot(ctx) {
			return nil, c.timedOut(ctx)
		}
		defer func() { <-c.slots }()
	}
	keys, ok := c.reg.TenantKeys(tenant)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	pm := c.met.programs[prog.Spec.Name]
	out, err := c.execute(ctx, prog, tenant, keys, ct)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		return nil, c.timedOut(ctx)
	default:
		c.met.Errors.Add(1)
		pm.Errors.Add(1)
		return nil, fmt.Errorf("serve: executing %q: %w", prog.Spec.Name, err)
	}
	if commit != nil {
		commit(out)
	}
	lat := time.Since(start)
	c.met.Completed.Add(1)
	c.met.Latency.Observe(lat)
	pm.Completed.Add(1)
	pm.Latency.Observe(lat)
	return out, nil
}

// takeSlot waits for one of the Workers executor slots, or for ctx to end
// (false). QueueDepth counts the waiters.
func (c *Core) takeSlot(ctx context.Context) bool {
	c.met.QueueDepth.Add(1)
	defer c.met.QueueDepth.Add(-1)
	select {
	case c.slots <- struct{}{}:
		c.met.SlotRuns.Add(1)
		return true
	case <-ctx.Done():
		return false
	}
}

// timedOut counts a request ended by its own context.
func (c *Core) timedOut(ctx context.Context) error {
	c.met.Timeouts.Add(1)
	return fmt.Errorf("serve: request timed out: %w", ctx.Err())
}

// execute replays prog's graph on ct with the tenant's keys; every request
// (one-shot or session step) runs here, and it is the only code that
// handles a cluster failure: the engines fail typed (ErrDegraded) and
// never finish a keyswitch themselves. With cluster backends, keyswitches
// ride the first eligible backend in failover order (primary first); a
// failed run feeds that backend's breaker and moves on to the next.
// Bootstraps always run coordinator-local (the bootstrap batcher and key
// material live here). When no backend succeeds the request replays
// locally from its original input — counted in EmulatorFallbacks,
// bit-identical since the kernels are the same — unless RequireCluster
// makes it a typed ErrDegraded instead.
func (c *Core) execute(ctx context.Context, prog *Program, tenant string, keys map[string]*ckks.EvalKey, ct *ckks.Ciphertext) (out *ckks.Ciphertext, err error) {
	// attempt is the backend whose breaker awaits this run's outcome; a
	// panic mid-run still reports it, so a half-open probe never dangles.
	var attempt *backend
	defer func() {
		if p := recover(); p != nil {
			if attempt != nil {
				attempt.brk.Failure()
			}
			c.met.Panics.Add(1)
			out, err = nil, fmt.Errorf("%w: recovered panic in run of %q: %v\n%s", ErrInternal, prog.Spec.Name, p, debug.Stack())
		}
	}()
	if c.cfg.testPreRun != nil {
		c.cfg.testPreRun(prog.Spec.Name)
	}
	var opts sched.RunOpts
	// refreshErr marks a failed coordinator-local refresh: like the
	// request's own deadline, it is no evidence against a backend.
	var refreshErr error
	if c.reg.Pre != nil {
		// The tenant's bootstrapper is resolved on the first refresh, so a
		// program that never exhausts its levels needs no bootstrap keys.
		var bs *bootstrap.Bootstrapper
		opts.Refresh = func(ctx context.Context, in *ckks.Ciphertext) (*ckks.Ciphertext, error) {
			if bs == nil {
				if bs, refreshErr = c.reg.BootstrapperFor(tenant); refreshErr != nil {
					return nil, refreshErr
				}
			}
			out, err := c.boot.Refresh(ctx, bs, in)
			if err != nil {
				refreshErr = err
			}
			return out, err
		}
	}
	ev, err := tenantEvaluator(c.reg.Params, keys)
	if err != nil {
		return nil, err
	}
	if c.backends != nil {
		for _, b := range c.backends.ranked() {
			// Healthy() is the cheap gate — a backend with any worker down
			// is skipped outright — and the breaker the stateful one:
			// after CircuitThreshold consecutive failures a backend isn't
			// even attempted until a cooldown-spaced probe succeeds, so a
			// flapping backend can't tax every run with RPC deadlines —
			// execution fails over to the next-ranked failure domain.
			if !b.eng.Healthy() || !b.brk.Allow() {
				continue
			}
			attempt = b
			// Binding the request's context clamps every per-worker RPC
			// deadline and cancels retries, all the way down the stack.
			ev.SetKeySwitcher(b.eng.Bound(ctx))
			out, err = prog.exec.Run(ctx, ev, ct, opts)
			attempt = nil
			if err == nil {
				c.backends.noteSuccess(b)
				return out, nil
			}
			if ctx.Err() != nil || refreshErr != nil {
				// The request's own deadline expired, or its refresh failed,
				// mid-run: neither is backend evidence — feeding it to the
				// breaker would let a burst of impatient clients open a
				// healthy backend's circuit. No point trying another
				// backend either.
				return nil, err
			}
			b.brk.Failure()
			// A failed distributed run left the evaluator mid-graph; rebuild
			// it before the next backend (or the local replay) starts clean.
			if ev, err = tenantEvaluator(c.reg.Params, keys); err != nil {
				return nil, err
			}
		}
		if c.cfg.RequireCluster {
			return nil, fmt.Errorf("serve: no cluster backend available (primary circuit %s): %w",
				c.backends.primaryBackend().brk.State(), cluster.ErrDegraded)
		}
		c.met.EmulatorFallbacks.Add(1)
	}
	return prog.exec.Run(ctx, ev, ct, opts)
}

// tenantEvaluator builds an evaluator over a tenant's registered key set,
// parsing the "rlk"/"conj"/"rot:<k>" id convention into a RotationKeySet.
func tenantEvaluator(params *ckks.Parameters, keys map[string]*ckks.EvalKey) (*ckks.Evaluator, error) {
	rtks := &ckks.RotationKeySet{Keys: map[int]*ckks.EvalKey{}}
	for id, k := range keys {
		switch {
		case id == "conj":
			rtks.Conj = k
		case strings.HasPrefix(id, "rot:"):
			off, err := strconv.Atoi(strings.TrimPrefix(id, "rot:"))
			if err != nil {
				return nil, fmt.Errorf("serve: malformed rotation key id %q", id)
			}
			rtks.Keys[off] = k
		}
	}
	return ckks.NewEvaluator(params, keys["rlk"], rtks), nil
}
