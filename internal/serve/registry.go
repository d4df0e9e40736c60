// Package serve is the encrypted-inference serving runtime: it turns
// compiled Cinnamon programs into a multi-tenant online service. The
// pipeline is registry → batcher → worker pool → metrics:
//
//   - the Registry compiles every catalog workload once at startup into a
//     batch-1 IR graph, its level/scale plan and a sched.Executor with the
//     model's plaintext operands encoded once, and holds per-tenant
//     evaluation keys;
//   - a dynamic batcher per (program, tenant) coalesces queued ciphertext
//     requests up to a max batch size or max wait deadline, so one
//     worker pickup serves several requests of the same program and keys;
//   - a worker pool runs every request of a batch on that executor, with
//     keyswitches delegated to the health-ranked cluster backends when
//     configured, bounded queues, per-request timeouts and load shedding
//     under backpressure. Deep programs and session steps run on the same
//     executor from the caller's goroutine;
//   - a metrics core tracks counters, queue depth, batch occupancy and
//     streaming latency quantiles, exposed as JSON.
//
// The CPU emulator over lowered ISA modules is not a serving path: it
// stays the paper's artifact and the tests' differential oracle, reached
// through Program.VariantFor.
//
// The package is stdlib-only; cmd/cinnamon-serve wraps it in net/http and
// cmd/cinnamon-loadgen drives it open-loop.
package serve

import (
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/compiler"
	"cinnamon/internal/dsl"
	"cinnamon/internal/limbir"
	"cinnamon/internal/polyir"
	"cinnamon/internal/sched"
	"cinnamon/internal/workloads"
)

// RegistryConfig configures program compilation.
type RegistryConfig struct {
	// Literal is the CKKS parameter literal; it is also what GET /v1/params
	// serves so clients can reconstruct an identical parameter set.
	Literal ckks.ParametersLiteral
	// Programs is the workload catalog to compile. Empty means the full
	// workloads.ServeWorkloads() catalog.
	Programs []workloads.ServeWorkload
	// MaxBatch is the default cap on serving batch size and the largest
	// emulator variant VariantFor lowers (rounded down to a power of two,
	// minimum 1). Default 4.
	MaxBatch int
	// Registers sizes the per-chip register file when VariantFor allocates
	// an emulator variant. Default 96.
	Registers int
	// Bootstrap, when set, enables the bootstrapping service: the registry
	// precomputes the (key-independent) bootstrap circuit once, catalog
	// programs too deep for the modulus chain compile as Bootstrapped
	// entries (executed op-by-op with mid-program refreshes) instead of
	// being skipped, and sessions may run indefinitely. Requires a sparse
	// secret (Literal.HammingWeight) and a chain deeper than the bootstrap
	// circuit itself.
	Bootstrap *bootstrap.Config
	// KeyBudgetBytes caps the bytes of decoded tenant eval keys held
	// resident (serialized-bundle length as the cost proxy). 0 means
	// unbounded — every registered tenant stays resident forever, the
	// pre-budget behavior. With a budget, registrations write through to a
	// content-addressed spill store and least-recently-used tenants are
	// evicted to it; accesses reload transparently.
	KeyBudgetBytes int64
	// KeySpillDir is where evicted key bundles live. Empty with a budget
	// set means a fresh temp directory (keys are then lost on restart,
	// like the in-memory registry before it — clients re-register).
	KeySpillDir string
}

// Variant is one emulator ISA lowering of a program: Batch independent
// streams, each placed on its own virtual chip. Serving never runs it; it
// is the oracle the executor is checked against.
type Variant struct {
	Batch  int
	Module *limbir.Module
}

// Program is a compiled catalog entry.
type Program struct {
	Spec workloads.ServeWorkload
	// InLevel is the level request ciphertexts must arrive at.
	InLevel int
	// OutLevel and OutScale describe the response ciphertext.
	OutLevel int
	OutScale float64
	// RequiredKeys lists the evaluation-key IDs a tenant must register
	// before running this program ("rlk", "rot:<k>", "conj"), sorted
	// rlk/conj first then rotations by offset.
	RequiredKeys []string
	// Rotations lists the slot-rotation offsets the compiled circuit
	// performs, deduped and ascending — the exact rotation-key set, taken
	// from the lowered IR rather than the catalog's declaration.
	Rotations []int
	// Plaintexts holds the server-side plaintext operands (model weights),
	// encoded once at startup and shared read-only across workers.
	Plaintexts map[string]*ckks.Plaintext
	// Bootstrapped marks a program whose depth exceeds the modulus chain:
	// its plan inserts BootstrapsRequired mid-program refreshes per
	// request arriving at InLevel, and it runs one request per call on the
	// caller's goroutine instead of through the batcher.
	Bootstrapped       bool
	BootstrapsRequired int
	// plan is the level/scale schedule; exec replays the batch-1 graph on
	// a real evaluator. Every request of this program runs on exec.
	plan *sched.Plan
	exec *sched.Executor
	// variants lowers the emulator variants, sorted by descending batch
	// size, on the first VariantFor call.
	variants func() ([]*Variant, error)
}

// VariantFor returns the largest emulator variant with Batch ≤ n (batch 1
// when n < 1), lowering every power-of-two variant up to the registry's
// MaxBatch on the first call. It is nil for Bootstrapped programs, which
// the emulator cannot host, and panics if lowering fails.
func (p *Program) VariantFor(n int) *Variant {
	if p.Bootstrapped {
		return nil
	}
	vs, err := p.variants()
	if err != nil {
		panic(fmt.Sprintf("serve: lowering %q: %v", p.Spec.Name, err))
	}
	for _, v := range vs {
		if v.Batch <= n {
			return v
		}
	}
	return vs[len(vs)-1]
}

// Plan exposes the level/scale schedule (tests and tooling).
func (p *Program) Plan() *sched.Plan { return p.plan }

// Executor exposes the replay executor (tests and tooling).
func (p *Program) Executor() *sched.Executor { return p.exec }

// Registry holds compiled programs and per-tenant key material.
type Registry struct {
	Params  *ckks.Parameters
	Literal ckks.ParametersLiteral

	programs map[string]*Program
	order    []string
	// maxBatch is RegistryConfig.MaxBatch rounded down to a power of two:
	// the default Config.MaxBatch and the largest VariantFor lowering.
	maxBatch int
	// Skipped lists catalog programs the parameter set cannot host, with
	// the reason. With bootstrapping enabled only MinSlots (and key/setup)
	// reasons remain — depth alone no longer skips a program.
	Skipped []string

	// Pre is the shared key-independent bootstrap circuit (nil when
	// bootstrapping is disabled).
	Pre *bootstrap.Precomp

	// keys is the budgeted tenant-key tier (keycache.go): always-resident
	// per-tenant metadata over an LRU of decoded key maps, spilling to a
	// content-addressed disk store when KeyBudgetBytes is set.
	keys *keyCache

	// evictHook, when set (NewDurableCore, until that core's Close), is
	// told about every decoded key map dropped by the cache so cluster
	// backends can invalidate the corresponding worker-resident keys.
	evictHook atomic.Pointer[func(keys map[string]*ckks.EvalKey)]

	bsMu    sync.Mutex
	bsCache map[string]*bootstrap.Bootstrapper
}

// NewRegistry compiles the catalog: for every program, the batch-1 graph
// and its executor, output metadata (level and scale inferred from the IR
// graph) and the encoded plaintext operands. It lowers no ISA module.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	params, err := ckks.NewParameters(cfg.Literal)
	if err != nil {
		return nil, fmt.Errorf("serve: parameters: %w", err)
	}
	progs := cfg.Programs
	if len(progs) == 0 {
		progs = workloads.ServeWorkloads()
	}
	maxBatch := 4
	if cfg.MaxBatch >= 1 {
		maxBatch = 1 << (bits.Len(uint(cfg.MaxBatch)) - 1)
	}
	regs := cfg.Registers
	if regs <= 0 {
		regs = 96
	}
	r := &Registry{
		Params:   params,
		Literal:  cfg.Literal,
		programs: map[string]*Program{},
		maxBatch: maxBatch,
		bsCache:  map[string]*bootstrap.Bootstrapper{},
	}
	var store *keyStore
	if cfg.KeyBudgetBytes > 0 {
		dir := cfg.KeySpillDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "cinnamon-keyspill-"); err != nil {
				return nil, fmt.Errorf("serve: key spill dir: %w", err)
			}
		}
		if store, err = newKeyStore(dir); err != nil {
			return nil, err
		}
	}
	r.keys = newKeyCache(params, cfg.KeyBudgetBytes, store)
	r.keys.onEvict = func(id string, keys map[string]*ckks.EvalKey) {
		// An evicted tenant's bootstrapper would otherwise pin the decoded
		// keys in memory behind the cache's back.
		r.bsMu.Lock()
		delete(r.bsCache, id)
		r.bsMu.Unlock()
		if hook := r.evictHook.Load(); hook != nil {
			(*hook)(keys)
		}
	}
	// Freeze the execution schedules alongside the catalog: keyswitch
	// plans for every level (digit ranges, base converters, batch NTT
	// plans, mod-down plans) compile here, once, so no serving request
	// ever pays plan compilation or its allocations on the hot path.
	if err := params.CompilePlans(); err != nil {
		return nil, fmt.Errorf("serve: compiling keyswitch plans: %w", err)
	}
	if cfg.Bootstrap != nil {
		pre, err := bootstrap.NewPrecomp(params, *cfg.Bootstrap)
		if err != nil {
			return nil, fmt.Errorf("serve: bootstrap precomp: %w", err)
		}
		if pre.ExitLevel() < 1 {
			return nil, fmt.Errorf("serve: bootstrap circuit consumes %d levels but the chain has %d — no exit budget (need at least %d levels)", pre.Consumed(), params.MaxLevel(), pre.Consumed()+1)
		}
		r.Pre = pre
	}
	enc := ckks.NewEncoder(params)
	for _, spec := range progs {
		if _, dup := r.programs[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate program %q", spec.Name)
		}
		// A program wider than the parameter set is skipped, not fatal:
		// narrow deployments keep serving the rest of the catalog.
		if spec.MinSlots > params.Slots() {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s: needs %d slots, parameters have %d", spec.Name, spec.MinSlots, params.Slots()))
			continue
		}
		// A program deeper than the chain is a bootstrapping customer; it
		// only skips when the registry has no bootstrap service to offer.
		if spec.MinLevels > params.MaxLevel() && r.Pre == nil {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s: needs %d levels, parameters have %d (enable bootstrapping to serve it)", spec.Name, spec.MinLevels, params.MaxLevel()))
			continue
		}
		p, err := compileProgram(params, enc, spec, r.Pre)
		if err != nil {
			return nil, fmt.Errorf("serve: compiling %q: %w", spec.Name, err)
		}
		p.variants = sync.OnceValues(func() ([]*Variant, error) { return lowerVariants(params, spec, maxBatch, regs) })
		r.programs[spec.Name] = p
		r.order = append(r.order, spec.Name)
	}
	return r, nil
}

// Program looks up a compiled program.
func (r *Registry) Program(name string) (*Program, bool) {
	p, ok := r.programs[name]
	return p, ok
}

// ProgramNames lists programs in catalog order.
func (r *Registry) ProgramNames() []string {
	return append([]string(nil), r.order...)
}

// RegisterTenant installs (or replaces) a tenant's evaluation keys. The
// map is copied; callers keep ownership of theirs. With a key budget
// configured the bundle also writes through to the spill store, and the
// registration may evict colder tenants to fit.
func (r *Registry) RegisterTenant(id string, keys map[string]*ckks.EvalKey) error {
	if id == "" {
		return fmt.Errorf("serve: empty tenant id")
	}
	cp := make(map[string]*ckks.EvalKey, len(keys))
	for k, v := range keys {
		cp[k] = v
	}
	if err := r.keys.register(id, cp); err != nil {
		return err
	}
	// New key material invalidates the tenant's cached bootstrapper.
	r.bsMu.Lock()
	delete(r.bsCache, id)
	r.bsMu.Unlock()
	return nil
}

// BootstrapperFor returns the tenant's bootstrapper — the shared Precomp
// bound to the tenant's own rlk/conj/rotation keys — building it on first
// use and caching until the tenant re-registers keys.
func (r *Registry) BootstrapperFor(id string) (*bootstrap.Bootstrapper, error) {
	if r.Pre == nil {
		return nil, fmt.Errorf("serve: bootstrapping disabled")
	}
	r.bsMu.Lock()
	cached, ok := r.bsCache[id]
	r.bsMu.Unlock()
	if ok {
		return cached, nil
	}
	// Load the keys WITHOUT bsMu held. A cold tenant's spill reload can
	// push resident bytes over budget, and the cache's eviction hook takes
	// bsMu to invalidate evicted tenants' bootstrappers — holding it
	// across TenantKeys would self-deadlock on this goroutine. It also
	// keeps one tenant's blocking disk reload from serializing every other
	// tenant's bootstrapper lookup (and RegisterTenant) behind it.
	gen, _ := r.keys.generation(id)
	keys, ok := r.TenantKeys(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	rtks := &ckks.RotationKeySet{Keys: map[int]*ckks.EvalKey{}, Conj: keys["conj"]}
	if rtks.Conj == nil {
		return nil, fmt.Errorf("%w: conj", ErrMissingKeys)
	}
	var missing []string
	for _, k := range r.Pre.Rotations() {
		id := fmt.Sprintf("rot:%d", k)
		if keys[id] == nil {
			missing = append(missing, id)
			continue
		}
		rtks.Keys[k] = keys[id]
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%w: %v", ErrMissingKeys, missing)
	}
	if keys["rlk"] == nil {
		return nil, fmt.Errorf("%w: rlk", ErrMissingKeys)
	}
	bs, err := bootstrap.NewBootstrapperFromKeys(r.Pre, keys["rlk"], rtks)
	if err != nil {
		return nil, err
	}
	r.bsMu.Lock()
	defer r.bsMu.Unlock()
	if cur, ok := r.bsCache[id]; ok {
		// A concurrent caller built it first; one copy wins.
		return cur, nil
	}
	// Cache only if the tenant hasn't re-registered since the keys were
	// read: a racing RegisterTenant already invalidated this id, and
	// caching a bootstrapper built from the superseded keys would undo
	// that. Returning the just-built bootstrapper is still correct for
	// this call — the keys were current when it started.
	if g, ok := r.keys.generation(id); ok && g == gen {
		r.bsCache[id] = bs
	}
	return bs, nil
}

// ResidentKeys returns the deduped evaluation keys of *resident* tenants.
// Backend recovery re-pushes exactly this working set to a rejoining
// cluster before the first request lands there (the push is
// content-addressed and lazy, so keys a worker session already holds cost
// nothing); spilled tenants re-push lazily on their next use instead of
// materializing the whole key population.
func (r *Registry) ResidentKeys() []*ckks.EvalKey {
	return r.keys.residentKeys()
}

// TenantKeys returns the tenant's key map (read-only — do not mutate).
// An evicted tenant reloads from the spill store here — a blocking cold
// miss on the caller's goroutine, metered as a cold-miss stall — so ok is
// false only for unknown tenants: never registered, or dropped because
// their spill bundle failed to read back (they must re-register).
func (r *Registry) TenantKeys(id string) (map[string]*ckks.EvalKey, bool) {
	return r.keys.get(id)
}

// TenantKeyNames returns the tenant's key-id set without loading or
// touching the LRU: the admission path validates required keys against it
// so cold tenants never block Submit itself.
func (r *Registry) TenantKeyNames(id string) (map[string]bool, bool) {
	return r.keys.keyNames(id)
}

// PrefetchTenant starts an async reload of an evicted tenant's keys; it is
// fired at batch admission (Submit / session-step enqueue) so the keys are
// warm by the time the batch reaches the worker pool.
func (r *Registry) PrefetchTenant(id string) {
	r.keys.prefetch(id)
}

// KeyCacheStats snapshots the key tier for /metrics and /healthz.
func (r *Registry) KeyCacheStats() KeyCacheStats {
	return r.keys.stats()
}

// MissingKeys reports which of the program's required keys the key set
// lacks.
func (p *Program) MissingKeys(keys map[string]*ckks.EvalKey) []string {
	var missing []string
	for _, id := range p.RequiredKeys {
		if keys[id] == nil {
			missing = append(missing, id)
		}
	}
	return missing
}

// MissingKeyNames is MissingKeys against a key-id set — what admission
// uses, so validating a spilled tenant needs no bundle load.
func (p *Program) MissingKeyNames(names map[string]bool) []string {
	var missing []string
	for _, id := range p.RequiredKeys {
		if !names[id] {
			missing = append(missing, id)
		}
	}
	return missing
}

// encodePlaintexts encodes the catalog operands with every limb
// (MaxLevel); the emulator addresses limbs by modulus and the scheduler
// restricts on demand, so circuits consuming an operand at a lower level
// just use fewer limbs.
func encodePlaintexts(params *ckks.Parameters, enc *ckks.Encoder, spec workloads.ServeWorkload) (map[string]*ckks.Plaintext, map[string]float64, error) {
	pts := map[string]*ckks.Plaintext{}
	ptScales := map[string]float64{}
	for _, ps := range spec.Plaintexts {
		values := ps.Values
		if values == nil {
			values = func(slots int) []complex128 { return workloads.ServeWeightVector(ps.Name, slots) }
		}
		scale := params.DefaultScale()
		if ps.Scale != nil {
			scale = ps.Scale(params)
		}
		pt, err := enc.Encode(values(params.Slots()), params.MaxLevel(), scale)
		if err != nil {
			return nil, nil, fmt.Errorf("encoding plaintext %q: %w", ps.Name, err)
		}
		pts[ps.Name] = pt
		ptScales[ps.Name] = scale
	}
	return pts, ptScales, nil
}

// compileProgram builds a catalog entry: the batch-1 DSL graph, its
// level/scale plan and the executor that serves every request. A program
// deeper than the chain (MinLevels > MaxLevel, only compiled when pre is
// set) is Bootstrapped: its graph is built at its own virtual depth, the
// plan inserts refreshes, and the tenant's key set must additionally cover
// the bootstrap circuit (conj and its rotation offsets), which
// RequiredKeys advertises. Requests arrive at MaxLevel either way.
func compileProgram(params *ckks.Parameters, enc *ckks.Encoder, spec workloads.ServeWorkload, pre *bootstrap.Precomp) (*Program, error) {
	p := &Program{Spec: spec, InLevel: params.MaxLevel(), Bootstrapped: spec.MinLevels > params.MaxLevel()}
	// Encode plaintext operands first: their (possibly non-default) scales
	// feed the level/scale plan below.
	var ptScales map[string]float64
	var err error
	if p.Plaintexts, ptScales, err = encodePlaintexts(params, enc, spec); err != nil {
		return nil, err
	}
	// The DSL tracks virtual levels eagerly, so a deep graph is built at
	// the program's own depth; physical levels are the plan's business.
	depth := params.MaxLevel()
	if p.Bootstrapped {
		depth = spec.MinLevels
	}
	g, err := buildGraph(spec, 1, depth)
	if err != nil {
		return nil, err
	}
	exitLevel := 0
	if pre != nil {
		exitLevel = pre.ExitLevel()
	}
	plan, err := sched.BuildPlan(g, params, ptScales, exitLevel)
	if err != nil {
		return nil, err
	}
	if !p.Bootstrapped && plan.Bootstraps > 0 {
		// A program that fits MaxLevel must not need a refresh: its
		// MinLevels declaration lied.
		return nil, fmt.Errorf("declares MinLevels %d but plans %d bootstraps at level %d", spec.MinLevels, plan.Bootstraps, params.MaxLevel())
	}
	p.plan = plan
	p.exec = sched.NewExecutor(g, params, p.Plaintexts)
	p.OutLevel, p.OutScale = plan.OutLevel, plan.OutScale
	p.RequiredKeys, p.Rotations = plan.Keys, plan.Rotations
	if !p.Bootstrapped {
		return p, nil
	}
	p.BootstrapsRequired = plan.Bootstraps
	// The tenant must hold the program's own keys plus the bootstrap
	// circuit's: rlk, conj, and the union of rotation offsets.
	rotSet := map[int]bool{}
	for _, k := range plan.Rotations {
		rotSet[k] = true
	}
	for _, k := range pre.Rotations() {
		rotSet[k] = true
	}
	p.Rotations = nil
	for k := range rotSet {
		p.Rotations = append(p.Rotations, k)
	}
	sort.Ints(p.Rotations)
	p.RequiredKeys = []string{"rlk", "conj"}
	for _, k := range p.Rotations {
		p.RequiredKeys = append(p.RequiredKeys, fmt.Sprintf("rot:%d", k))
	}
	return p, nil
}

// buildGraph builds the workload's DSL graph with batch independent
// streams, each an instance of the workload with its input at depth.
func buildGraph(spec workloads.ServeWorkload, batch, depth int) (*polyir.Graph, error) {
	prog := dsl.NewProgram(dsl.Config{MaxLevel: depth})
	dsl.StreamPool(prog, batch, func(i int, s *dsl.Stream) {
		x := s.Input(fmt.Sprintf("x%d", i), depth)
		s.Output(fmt.Sprintf("y%d", i), spec.Build(s, x))
	})
	return prog.Finish()
}

// lowerVariants lowers the emulator variants, descending by batch size:
// for each power of two up to maxBatch, batch identical streams, each on
// its own chip (group size 1, sequential keyswitching, so tenants only
// need rlk/rot/conj keys), so one emulator run serves batch requests.
func lowerVariants(params *ckks.Parameters, spec workloads.ServeWorkload, maxBatch, regs int) ([]*Variant, error) {
	var out []*Variant
	for b := maxBatch; b >= 1; b /= 2 {
		g, err := buildGraph(spec, b, params.MaxLevel())
		if err != nil {
			return nil, err
		}
		groups := (&polyir.KeyswitchPass{NChips: 1}).Run(g)
		mod, err := compiler.Lower(g, params, b, groups)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		if mod, err = compiler.Allocate(mod, regs); err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		out = append(out, &Variant{Batch: b, Module: mod})
	}
	return out, nil
}

// Output metadata (level, scale, required keys) is inferred by
// sched.BuildPlan: it walks the IR graph tracking the scale arithmetic the
// reference evaluator performs and validates that additions mix equal
// scales, so a frontend scale-management bug fails compilation instead of
// corrupting served results.
