package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/serve"
	"cinnamon/internal/workloads"
)

// paramSeed is cinnamon-serve's default parameter seed. The benchmark's
// --seed varies the request stream, not the parameter set.
const paramSeed = 20260805

// defaultTol is the slot-error bound for programs that advertise none.
const defaultTol = 1e-3

// setupRuns is how many set-ups an untraced run times; setup_s is their
// median. Each sub-run's server counts, and a workload with fewer sub-runs
// first sets up (and closes) the missing ones.
const setupRuns = 3

// failedLatency stands in for the latency of a failed operation (the
// server's request timeout): a failure misses any latency limit.
const failedLatency = 10 * time.Second

//go:embed workloads.json
var specJSON []byte

// spec is one workload of workloads.json. The file's why, mix and
// predictions entries document the workload; the benchmark checks only the
// bypass predictions, in traced runs.
type spec struct {
	Programs         []string `json:"programs"`
	Tenants          int      `json:"tenants"`
	ZipfS            float64  `json:"zipf_s"`
	ClusterWorkers   int      `json:"cluster_workers"`
	KeyBudgetBundles float64  `json:"key_budget_bundles"`
	Bootstrap        bool     `json:"bootstrap"`
	SessionLog       bool     `json:"session_log"`
	Callers          int      `json:"callers"`
	StepsPerSession  int      `json:"steps_per_session"`
	Pool             int      `json:"pool"`
	SubRuns          int      `json:"sub_runs"`
	TailPercentile   float64  `json:"tail_percentile"`
	Loop             string   `json:"loop"`
	BypassZero       []string `json:"bypass_zero"`
}

func (s *spec) sessions() bool { return s.StepsPerSession > 0 }

// steps is how many responses one pool entry gets: one per session step,
// or one.
func (s *spec) steps() int { return max(s.StepsPerSession, 1) }

func loadSpecs() (map[string]*spec, error) {
	var m map[string]*spec
	if err := json.Unmarshal(specJSON, &m); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return m, nil
}

// tenant is one client: its key bundle and its own encryptor/decryptor.
type tenant struct {
	id     string
	bundle []byte
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
}

// entry is one pre-built request: operation i of a run sends entry
// i mod len(pool). For sessions it is one session's seed input, and want
// holds the expected state after each step.
type entry struct {
	prog   string
	tenant int
	body   []byte
	want   [][]complex128
	tol    float64
}

// bench is everything a run builds before the clock starts.
type bench struct {
	name    string
	spec    *spec
	seed    int64
	dur     time.Duration
	workDir string

	lit     ckks.ParametersLiteral
	params  *ckks.Parameters
	enc     *ckks.Encoder
	tenants []*tenant
	pool    []*entry
	probe   probeInputs // traced runs only
}

func (b *bench) registryConfig() serve.RegistryConfig {
	cfg := serve.RegistryConfig{Literal: b.lit, MaxBatch: 4}
	if b.spec.Bootstrap {
		bc := bootstrap.DefaultConfig()
		cfg.Bootstrap = &bc
	}
	return cfg
}

// newBench generates the tenants' keys and the seeded request pool.
func newBench(name string, sp *spec, seed int64, seconds int, workDir string, traced bool) (*bench, error) {
	b := &bench{name: name, spec: sp, seed: seed, dur: time.Duration(seconds) * time.Second, workDir: workDir}
	if sp.Bootstrap {
		b.lit = workloads.ServeBootstrapParamsLiteral(8, 16, paramSeed)
	} else {
		b.lit = workloads.ServeParamsLiteral(8, 4, paramSeed)
	}
	var err error
	if b.params, err = ckks.NewParameters(b.lit); err != nil {
		return nil, err
	}
	b.enc = ckks.NewEncoder(b.params)
	// The key set a tenant must upload comes from the compiled programs,
	// so compile a throwaway registry once.
	reg, err := serve.NewRegistry(b.registryConfig())
	if err != nil {
		return nil, err
	}
	keyIDs := map[string]bool{}
	specs := map[string]workloads.ServeWorkload{}
	for _, name := range sp.Programs {
		p, ok := reg.Program(name)
		if !ok {
			return nil, fmt.Errorf("program %q is not in the registry", name)
		}
		for _, id := range p.RequiredKeys {
			keyIDs[id] = true
		}
		specs[name] = p.Spec
	}
	kg := ckks.NewKeyGenerator(b.params)
	for t := 0; t < sp.Tenants; t++ {
		tn, err := newTenant(b.params, kg, fmt.Sprintf("t%d", t), keyIDs)
		if err != nil {
			return nil, err
		}
		b.tenants = append(b.tenants, tn)
	}
	if traced {
		if err := b.newProbeInputs(reg, kg); err != nil {
			return nil, err
		}
	}

	// The mix is stratified: each program, and each tenant in proportion
	// to its Zipf weight, fills a fixed share of the pool, and the seed
	// shuffles the order and draws the slot values. Seeds then differ in
	// order and inputs, not in how much work the mix holds. Programs are
	// shuffled only within consecutive blocks that hold each program once,
	// so the requests in flight together hold about the same mix under any
	// seed. A free shuffle lets some seeds bunch the slowest program, and
	// those seeds then set a higher tail on every run.
	rng := rand.New(rand.NewSource(seed))
	np := len(sp.Programs)
	progs := make([]int, sp.Pool)
	for i := range progs {
		progs[i] = i % np
	}
	for lo := 0; lo < len(progs); lo += np {
		blk := progs[lo:min(lo+np, len(progs))]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	tenantOf := stratify(zipfWeights(sp.Tenants, sp.ZipfS), sp.Pool)
	rng.Shuffle(len(tenantOf), func(i, j int) { tenantOf[i], tenantOf[j] = tenantOf[j], tenantOf[i] })
	for i := 0; i < sp.Pool; i++ {
		e := &entry{prog: sp.Programs[progs[i]], tenant: tenantOf[i]}
		w := specs[e.prog]
		v := makeInput(w, rng, b.params.Slots())
		plain, err := plainEval(w)
		if err != nil {
			return nil, err
		}
		e.tol = w.VerifyTol
		if e.tol <= 0 {
			e.tol = defaultTol
		}
		x := v
		for k := 0; k < sp.steps(); k++ {
			x = plain(x)
			e.want = append(e.want, x)
		}
		pt, err := b.enc.Encode(v, b.params.MaxLevel(), b.params.DefaultScale())
		if err != nil {
			return nil, err
		}
		ct, err := b.tenants[e.tenant].encr.Encrypt(pt)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ct.Write(&buf); err != nil {
			return nil, err
		}
		e.body = buf.Bytes()
		b.pool = append(b.pool, e)
	}
	return b, nil
}

func newTenant(params *ckks.Parameters, kg *ckks.KeyGenerator, id string, keyIDs map[string]bool) (*tenant, error) {
	sk, err := kg.GenSecretKey()
	if err != nil {
		return nil, err
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		return nil, err
	}
	// Key generation draws from one seeded sampler, so keys are generated
	// in a fixed order (never map order) to make every response repeat.
	var rots []int
	for kid := range keyIDs {
		if k, ok := strings.CutPrefix(kid, "rot:"); ok {
			r, err := strconv.Atoi(k)
			if err != nil {
				return nil, fmt.Errorf("key id %q: %w", kid, err)
			}
			rots = append(rots, r)
		} else if kid != "rlk" && kid != "conj" {
			return nil, fmt.Errorf("unknown key id %q", kid)
		}
	}
	sort.Ints(rots)
	keys := map[string]*ckks.EvalKey{}
	if keyIDs["rlk"] {
		if keys["rlk"], err = kg.GenRelinKey(sk); err != nil {
			return nil, err
		}
	}
	if keyIDs["conj"] {
		if keys["conj"], err = kg.GenConjugationKey(sk); err != nil {
			return nil, err
		}
	}
	for _, k := range rots {
		if keys[fmt.Sprintf("rot:%d", k)], err = kg.GenRotationKey(sk, k); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := serve.WriteKeyBundle(&buf, keys); err != nil {
		return nil, err
	}
	return &tenant{id: id, bundle: buf.Bytes(), encr: ckks.NewEncryptor(params, pk), decr: ckks.NewDecryptor(params, sk)}, nil
}

// newProbeInputs builds the layer probes' key set, covering every program
// the registry compiled, and one ciphertext at the input level with slot
// values in [0, 1) so the deep program's bootstraps stay in range.
func (b *bench) newProbeInputs(reg *serve.Registry, kg *ckks.KeyGenerator) error {
	ids := map[string]bool{}
	for _, name := range reg.ProgramNames() {
		p, _ := reg.Program(name)
		for _, id := range p.RequiredKeys {
			ids[id] = true
		}
	}
	tn, err := newTenant(b.params, kg, "probe", ids)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	v := make([]complex128, b.params.Slots())
	for i := range v {
		v[i] = complex(rng.Float64(), 0)
	}
	pt, err := b.enc.Encode(v, b.params.MaxLevel(), b.params.DefaultScale())
	if err != nil {
		return err
	}
	ct, err := tn.encr.Encrypt(pt)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		return err
	}
	b.probe = probeInputs{bundle: tn.bundle, ct: buf.Bytes()}
	return nil
}

// zipfWeights returns the Zipf(s) probabilities of n ranks, as
// rand.NewZipf(r, s, 1, n-1) draws them: rank k has weight (1+k)^-s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(1+k), -s)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// stratify returns n labels, label k appearing in proportion to weights[k]
// (largest remainder rounding), in label order.
func stratify(weights []float64, n int) []int {
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for k, w := range weights {
		exact := w * float64(n)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		left -= counts[k]
	}
	order := make([]int, len(weights))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return rem[order[i]] > rem[order[j]] })
	for _, k := range order[:left] {
		counts[k]++
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			out = append(out, k)
		}
	}
	return out
}

func makeInput(w workloads.ServeWorkload, rng *rand.Rand, slots int) []complex128 {
	if w.MakeInput != nil {
		return w.MakeInput(rng, slots)
	}
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// plainEval returns the program's plaintext semantics: its EvalPlain, or,
// for the two catalog kernels that ship none, the same rotation sums
// written out on slot vectors (rotation by k moves slot i+k to slot i).
func plainEval(w workloads.ServeWorkload) (func([]complex128) []complex128, error) {
	if w.EvalPlain != nil {
		return w.EvalPlain, nil
	}
	rotSum := func(in []complex128, ks []int, weight func(k int) complex128) []complex128 {
		n := len(in)
		out := make([]complex128, n)
		for _, k := range ks {
			for i := range out {
				out[i] += weight(k) * in[(i+k)%n]
			}
		}
		return out
	}
	switch w.Name {
	case "rotsum":
		return func(in []complex128) []complex128 {
			return rotSum(in, []int{1, 2, 4}, func(int) complex128 { return 1 })
		}, nil
	case "wavg4":
		return func(in []complex128) []complex128 {
			return rotSum(in, []int{0, 1, 2, 3}, func(k int) complex128 {
				return complex(workloads.ServeWeight(fmt.Sprintf("wavg4.w%d", k)), 0)
			})
		}, nil
	}
	return nil, fmt.Errorf("program %q has no plaintext reference", w.Name)
}

// wireStats meters the coordinator side of every cluster connection while
// enabled: time inside Write, and time blocked inside Read.
type wireStats struct {
	enabled    atomic.Bool
	writeNs    atomic.Int64
	readWaitNs atomic.Int64
}

// wireDialer wraps a pipe dialer so its connections report to wireStats.
type wireDialer struct {
	pipe *cluster.PipeDialer
	st   *wireStats
}

func (d *wireDialer) Dial(ctx context.Context) (net.Conn, error) {
	c, err := d.pipe.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, st: d.st}, nil
}

type wireConn struct {
	net.Conn
	st *wireStats
}

func (c *wireConn) Read(p []byte) (int, error) {
	if !c.st.enabled.Load() {
		return c.Conn.Read(p)
	}
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.st.readWaitNs.Add(int64(time.Since(t)))
	return n, err
}

func (c *wireConn) Write(p []byte) (int, error) {
	if !c.st.enabled.Load() {
		return c.Conn.Write(p)
	}
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(int64(time.Since(t)))
	return n, err
}

// setupTimes splits one server set-up into its stages.
type setupTimes struct {
	registry, cluster, core, keys, warmup, total time.Duration
	register                                     []time.Duration // one per key bundle POST
}

// server is one set-up of the serving stack under test.
type server struct {
	reg     *serve.Registry
	core    *serve.Core
	h       http.Handler
	engines []*cluster.Engine
	pipes   []*cluster.PipeDialer
	wire    *wireStats
	dir     string
	logPath string
	times   setupTimes
}

// startServer sets the server up the way cinnamon-serve does with its
// stock flags, registers every tenant's key bundle over HTTP and sends one
// verified warm-up operation.
func (b *bench) startServer() (s *server, err error) {
	s = &server{wire: &wireStats{}}
	if s.dir, err = os.MkdirTemp(b.workDir, "server-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	t0 := time.Now()
	cfg := b.registryConfig()
	if b.spec.KeyBudgetBundles > 0 {
		cfg.KeyBudgetBytes = int64(b.spec.KeyBudgetBundles * float64(len(b.tenants[0].bundle)))
		cfg.KeySpillDir = filepath.Join(s.dir, "keyspill")
	}
	if s.reg, err = serve.NewRegistry(cfg); err != nil {
		return nil, err
	}
	t1 := time.Now()
	var backends []serve.BackendSpec
	if n := b.spec.ClusterWorkers; n > 0 {
		dialers := make([]cluster.Dialer, n)
		for i := range dialers {
			pd := cluster.NewPipeDialer(cluster.NewWorker(s.reg.Params))
			s.pipes = append(s.pipes, pd)
			dialers[i] = &wireDialer{pipe: pd, st: s.wire}
		}
		eng, err := cluster.NewEngine(s.reg.Params, dialers, cluster.Options{HeartbeatInterval: time.Second})
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		s.engines = append(s.engines, eng)
		backends = append(backends, serve.BackendSpec{Name: "c0", Engine: eng})
	}
	t2 := time.Now()
	if b.spec.SessionLog {
		s.logPath = filepath.Join(s.dir, "sessions.log")
	}
	if s.core, err = serve.NewDurableCore(s.reg, serve.Config{
		MaxBatch:       4,
		BatchWait:      2 * time.Millisecond,
		Workers:        runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		RequestTimeout: 10 * time.Second,
		Backends:       backends,
		SessionLog:     s.logPath,
		BootstrapBatch: 8,
		BootstrapWait:  25 * time.Millisecond,
		SessionTTL:     5 * time.Minute,
	}); err != nil {
		return nil, err
	}
	s.h = serve.NewHandler(s.core, serve.HandlerConfig{})
	t3 := time.Now()
	for _, tn := range b.tenants {
		r0 := time.Now()
		if code, msg := s.do(http.MethodPost, "/v1/tenants/"+tn.id+"/keys", "", tn.bundle); code != http.StatusNoContent {
			return nil, fmt.Errorf("registering %s: %d %s", tn.id, code, msg)
		}
		s.times.register = append(s.times.register, time.Since(r0))
	}
	t4 := time.Now()
	if err := b.warmup(s); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	t5 := time.Now()
	s.times.registry, s.times.cluster, s.times.core = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	s.times.keys, s.times.warmup, s.times.total = t4.Sub(t3), t5.Sub(t4), t5.Sub(t0)
	return s, nil
}

// warmup sends the first operation of the pool and verifies its response.
func (b *bench) warmup(s *server) error {
	e := b.pool[0]
	if !b.spec.sessions() {
		code, body := s.do(http.MethodPost, "/v1/programs/"+e.prog+":run", b.tenants[e.tenant].id, e.body)
		if code != http.StatusOK {
			return fmt.Errorf("%s: %d %s", e.prog, code, body)
		}
		_, err := b.verify(e, 0, body)
		return err
	}
	id, err := s.createSession(b.tenants[e.tenant].id, e.prog)
	if err != nil {
		return err
	}
	code, body := s.do(http.MethodPost, "/v1/sessions/"+id+":step", "", e.body)
	if code != http.StatusOK {
		return fmt.Errorf("step: %d %s", code, body)
	}
	if _, err := b.verify(e, 0, body); err != nil {
		return err
	}
	if code, msg := s.do(http.MethodDelete, "/v1/sessions/"+id, "", nil); code != http.StatusNoContent {
		return fmt.Errorf("close: %d %s", code, msg)
	}
	return nil
}

func (s *server) close() {
	if s.core != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.core.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: closing core:", err)
		}
		cancel()
	}
	for _, e := range s.engines {
		e.Close()
	}
	for _, p := range s.pipes {
		p.Kill()
	}
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
}

// do sends one request through the public HTTP handler, in process.
func (s *server) do(method, path, tenant string, body []byte) (int, []byte) {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	if tenant != "" {
		r.Header.Set("X-Cinnamon-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, r)
	return rec.Code, rec.Body.Bytes()
}

func (s *server) createSession(tenant, program string) (string, error) {
	req, err := json.Marshal(map[string]string{"tenant": tenant, "program": program})
	if err != nil {
		return "", err
	}
	code, body := s.do(http.MethodPost, "/v1/sessions", "", req)
	if code != http.StatusCreated {
		return "", fmt.Errorf("create session: %d %s", code, body)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return info.ID, nil
}

// verify decrypts a response and returns its worst slot error against
// step k (0-based) of the entry's expected values; it fails beyond
// (k+1)·tol.
func (b *bench) verify(e *entry, k int, body []byte) (float64, error) {
	ct, err := ckks.ReadCiphertext(bytes.NewReader(body), b.params)
	if err != nil {
		return 0, fmt.Errorf("response: %w", err)
	}
	pt, err := b.tenants[e.tenant].decr.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	got, err := b.enc.Decode(pt, b.params.Slots())
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i, w := range e.want[k] {
		if d := cmplx.Abs(got[i] - w); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	if !(worst <= float64(k+1)*e.tol) {
		return worst, fmt.Errorf("%s step %d: slot error %.3g exceeds %.3g", e.prog, k+1, worst, float64(k+1)*e.tol)
	}
	return worst, nil
}

// canonStore holds the first response seen for each response key (pool
// entry, and step for sessions). Every later response for the key must be
// bit-identical to it: batching, failover and bootstrap-tick composition
// may not change a ciphertext.
type canonStore struct {
	mu      sync.Mutex
	resp    [][]byte
	matches []int64
	differ  map[int][]byte // per key, the first response unlike resp[key]
}

func newCanonStore(n int) *canonStore {
	return &canonStore{resp: make([][]byte, n), matches: make([]int64, n), differ: map[int][]byte{}}
}

func (c *canonStore) check(key int, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resp[key] == nil {
		c.resp[key] = append([]byte(nil), body...)
	} else if !bytes.Equal(c.resp[key], body) {
		if _, seen := c.differ[key]; !seen {
			c.differ[key] = append([]byte(nil), body...)
		}
		return false
	}
	c.matches[key]++
	return true
}

// outcomes counts operations by how they ended.
type outcomes struct {
	attempted, shed, timeouts, errors, wrong atomic.Int64
}

func (o *outcomes) failed() int64 {
	return o.shed.Load() + o.timeouts.Load() + o.errors.Load() + o.wrong.Load()
}

// classify counts a finished operation and reports whether it succeeded
// with the expected status.
func (o *outcomes) classify(code, want int) bool {
	o.attempted.Add(1)
	switch {
	case code == want:
		return true
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		o.shed.Add(1)
	case code == http.StatusGatewayTimeout:
		o.timeouts.Add(1)
	default:
		o.errors.Add(1)
	}
	return false
}

// measurement is what one closed-loop window produced.
type measurement struct {
	latency    []float64 // ms, operations sent inside the window (failed ones count as failedLatency)
	throughput float64   // verified completions per second inside the window
	completed  int       // verified completions, the window's stragglers included
	out        outcomes
	canon      *canonStore
	digest     string
	worstErr   float64
}

// subDur is the measured time of one sub-run.
func (b *bench) subDur() time.Duration { return b.dur / time.Duration(b.spec.SubRuns) }

// measure runs the workload's closed loop against s for one sub-run: one
// request per call, or one whole session. With a tracer, every operation
// also records spans.
func (b *bench) measure(s *server, tr *tracer) (*measurement, error) {
	m := &measurement{canon: newCanonStore(len(b.pool) * b.spec.steps())}
	var next atomic.Int64
	op := func(clk phaseClock) []sample {
		return []sample{b.fire(s, m, clk, int(next.Add(1)-1), tr)}
	}
	if b.spec.sessions() {
		op = func(clk phaseClock) []sample {
			return b.runSession(s, m, int(next.Add(1)-1), clk, tr)
		}
	}
	start := time.Now()
	all := closedLoop(start, b.spec.Callers, b.subDur(), op)
	if !b.spec.sessions() {
		tr.requestSpans(start, all)
	}
	window := inWindow(all, b.subDur())
	for _, smp := range window {
		m.latency = append(m.latency, latencyMs(smp))
	}
	m.throughput = windowCompletions(window, b.subDur()) / b.subDur().Seconds()
	m.completed = countOK(all)
	b.answerRest(s, m)
	return m, b.finish(m)
}

// answerRest sends, untimed, every pool entry the window left unanswered,
// so the digest covers the whole pool however slow the server is.
func (b *bench) answerRest(s *server, m *measurement) {
	clk := phaseClock{start: time.Now()}
	for j := range b.pool {
		switch {
		case m.canon.resp[j*b.spec.steps()] != nil:
		case b.spec.sessions():
			b.runSession(s, m, j, clk, nil)
		default:
			b.fire(s, m, clk, j, nil)
		}
	}
}

// fire sends request i (pool entry i mod len) and times it; the response is
// checked against the entry's canonical one after the clock stops.
func (b *bench) fire(s *server, m *measurement, clk phaseClock, i int, tr *tracer) sample {
	key := i % len(b.pool)
	e := b.pool[key]
	smp := sample{trace: int64(i), sent: clk.now()}
	code, body := s.do(http.MethodPost, "/v1/programs/"+e.prog+":run", b.tenants[e.tenant].id, e.body)
	smp.done = clk.now()
	tr.span(smp.trace, 1, "serve.http", clk.start.Add(smp.sent), clk.start.Add(smp.done))
	smp.ok = m.accept(key, code, http.StatusOK, body)
	return smp
}

// accept counts one response and reports whether it has the wanted status
// and is bit-identical to the canonical response for key.
func (m *measurement) accept(key, code, want int, body []byte) bool {
	if !m.out.classify(code, want) {
		return false
	}
	if !m.canon.check(key, body) {
		m.out.wrong.Add(1)
		return false
	}
	return true
}

// runSession opens session j, runs all its steps (a session under way when
// the window closes still finishes) and closes it. It returns one sample
// per step.
func (b *bench) runSession(s *server, m *measurement, j int, clk phaseClock, tr *tracer) []sample {
	steps := b.spec.StepsPerSession
	key := j % len(b.pool)
	e := b.pool[key]
	trace := int64(j)
	c0 := time.Now()
	req, err := json.Marshal(map[string]string{"tenant": b.tenants[e.tenant].id, "program": e.prog})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	code, body := s.do(http.MethodPost, "/v1/sessions", "", req)
	tr.span(trace, 1, "session.create", c0, time.Now())
	if !m.out.classify(code, http.StatusCreated) {
		return nil
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		m.out.errors.Add(1)
		return nil
	}
	var out []sample
	for k := 0; k < steps; k++ {
		var in []byte
		if k == 0 {
			in = e.body
		}
		smp := sample{trace: trace, sent: clk.now()}
		code, body := s.do(http.MethodPost, "/v1/sessions/"+info.ID+":step", "", in)
		smp.done = clk.now()
		tr.span(trace, int64(2+k), "session.step", clk.start.Add(smp.sent), clk.start.Add(smp.done))
		smp.ok = m.accept(key*steps+k, code, http.StatusOK, body)
		tr.logSize(s.logPath)
		out = append(out, smp)
		if !smp.ok {
			break
		}
	}
	d0 := time.Now()
	code, _ = s.do(http.MethodDelete, "/v1/sessions/"+info.ID, "", nil)
	tr.span(trace, 2+int64(steps), "session.close", d0, time.Now())
	m.out.classify(code, http.StatusNoContent)
	tr.sessionSpan(trace, c0, time.Now())
	return out
}

// finish verifies every canonical response by decryption, outside the
// timed path, and folds them into the output digest: SHA-256 over the
// canonical responses in pool (and step) order. It also decrypts the first
// response of each key that differed from its canonical one; any such
// response fails the run, whether or not it decrypts within tolerance.
func (b *bench) finish(m *measurement) error {
	steps := b.spec.steps()
	h := sha256.New()
	var errs []error
	for key, body := range m.canon.resp {
		e, k := b.pool[key/steps], key%steps
		if body == nil {
			errs = append(errs, fmt.Errorf("pool entry %d step %d was never answered, so the digest is incomplete", key/steps, k+1))
			continue
		}
		worst, err := b.verify(e, k, body)
		if worst > m.worstErr || math.IsNaN(worst) {
			m.worstErr = worst
		}
		if err != nil {
			m.out.wrong.Add(m.canon.matches[key])
			errs = append(errs, err)
		}
		h.Write(body)
	}
	keys := make([]int, 0, len(m.canon.differ))
	for key := range m.canon.differ {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	for _, key := range keys {
		e, k := b.pool[key/steps], key%steps
		what := "it decrypts within tolerance"
		if _, err := b.verify(e, k, m.canon.differ[key]); err != nil {
			what = err.Error()
		}
		errs = append(errs, fmt.Errorf("pool entry %d step %d: a response differs from the first one (%s)", key/steps, k+1, what))
	}
	m.digest = hex.EncodeToString(h.Sum(nil))
	m.canon.resp, m.canon.differ = nil, nil // drop the bodies before the heap is measured
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Errorf("and %d more", len(errs)-3))
	}
	return errors.Join(errs...)
}

func countOK(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

func latencyMs(s sample) float64 {
	if !s.ok {
		return ms(failedLatency)
	}
	return ms(s.latency())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
