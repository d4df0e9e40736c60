package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
)

// TestOverloadShedsKeepsAdmittedLatencyFlat is the overload invariant:
// when offered load exceeds capacity, the core sheds with typed
// ErrOverloaded (429 at the HTTP layer) while the requests it does admit
// keep a p50 within 2× the unloaded baseline — bounded admission means
// overload shows up as fast rejections, not as a latency collapse for
// everyone.
func TestOverloadShedsKeepsAdmittedLatencyFlat(t *testing.T) {
	reg := testEnv(t)
	const exec = 50 * time.Millisecond
	core := NewCore(reg, Config{
		Workers:        1,
		AdmissionLimit: 1, // one request inside the core; the rest shed
		RequestTimeout: 5 * time.Second,
		testPreRun:     func(string) { time.Sleep(exec) }, // deterministic slow backend
	})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 1)

	// Unloaded baseline: sequential requests, no contention.
	var base []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
			t.Fatalf("baseline request: %v", err)
		}
		base = append(base, time.Since(start))
	}
	p50Base := median(base)

	// Overload: 6 closed-loop clients against single-request capacity.
	var (
		mu       sync.Mutex
		admitted []time.Duration
		shed     atomic.Int64
	)
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				_, err := core.Submit(context.Background(), "square", testTenant, ct)
				switch {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, time.Since(start))
					mu.Unlock()
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
					time.Sleep(time.Millisecond) // shed is instant; don't spin
				default:
					t.Errorf("unexpected submit error under overload: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatal("no requests were shed at 6x overload")
	}
	if len(admitted) < 10 {
		t.Fatalf("only %d requests admitted during overload window", len(admitted))
	}
	p50Loaded := median(admitted)
	if p50Loaded > 2*p50Base {
		t.Errorf("admitted p50 under overload = %v, want <= 2x unloaded baseline %v", p50Loaded, p50Base)
	}
	t.Logf("baseline p50 %v, overloaded p50 %v (%d admitted, %d shed)",
		p50Base, p50Loaded, len(admitted), shed.Load())
	if got := core.Metrics().Snapshot().Rejected; got != shed.Load() {
		t.Errorf("Rejected metric = %d, want %d", got, shed.Load())
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// TestPanicRecoveryIsolatesRequest: a panic during an execution fails only
// that request — typed with ErrInternal, counted in Panics and Errors —
// and the core keeps serving.
func TestPanicRecoveryIsolatesRequest(t *testing.T) {
	reg := testEnv(t)
	var bomb atomic.Bool
	bomb.Store(true)
	core := NewCore(reg, Config{
		Workers: 1,
		testPreRun: func(string) {
			if bomb.CompareAndSwap(true, false) {
				panic("injected execution panic")
			}
		},
	})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 2)

	_, err := core.Submit(context.Background(), "square", testTenant, ct)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("poisoned request error = %v, want ErrInternal", err)
	}
	if snap := core.Metrics().Snapshot(); snap.Panics != 1 || snap.Errors != 1 || snap.Timeouts != 0 {
		t.Fatalf("panics=%d errors=%d timeouts=%d, want 1/1/0", snap.Panics, snap.Errors, snap.Timeouts)
	}
	// The core survived: the next request is served normally.
	out, err := core.Submit(context.Background(), "square", testTenant, ct)
	if err != nil || out == nil {
		t.Fatalf("request after recovered panic: %v", err)
	}
	want := reference(t, "square", ct)
	if e := maxSlotErr(decryptDecode(t, out), decryptDecode(t, want)); e > 1e-3 {
		t.Fatalf("post-panic result slot error %g", e)
	}
}

// parker is a testPreRun hook that parks every execution, on the executor
// slot it holds, until release.
type parker struct {
	entered atomic.Int64
	hold    chan struct{}
	once    sync.Once
}

func newParker() *parker { return &parker{hold: make(chan struct{})} }

func (p *parker) park(string) {
	p.entered.Add(1)
	<-p.hold
}

func (p *parker) release() { p.once.Do(func() { close(p.hold) }) }

// waitFor polls cond until it holds, failing after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitAll starts one Submit of program per ciphertext seed and returns a
// wait function yielding every request's error.
func submitAll(t *testing.T, core *Core, program string, seeds ...int64) func() []error {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		ct, _ := encryptRandom(t, seed)
		wg.Add(1)
		go func(i int, ct *ckks.Ciphertext) {
			defer wg.Done()
			_, errs[i] = core.Submit(context.Background(), program, testTenant, ct)
		}(i, ct)
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

// TestShutdownDrainsInFlight: requests parked on held executor slots, and
// requests waiting for a slot, all complete when Close drains; Close waits
// for them and does not time out, and later submissions are refused.
func TestShutdownDrainsInFlight(t *testing.T) {
	reg := testEnv(t)
	p := newParker()
	defer p.release()
	core := NewCore(reg, Config{Workers: 2, RequestTimeout: time.Hour, testPreRun: p.park})
	const n = 5
	wait := submitAll(t, core, "rotsum", 400, 401, 402, 403, 404)
	waitFor(t, "two parked runs and three slot waiters", func() bool {
		return p.entered.Load() == 2 && core.Metrics().QueueDepth.Load() == n-2
	})
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		closed <- core.Close(ctx)
	}()
	waitFor(t, "draining", func() bool { return core.Health().Draining })
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with requests still in flight", err)
	default:
	}
	p.release()
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("request %d lost in shutdown: %v", i, err)
		}
	}
	if snap := core.Metrics().Snapshot(); snap.Completed != n {
		t.Fatalf("completed %d of %d", snap.Completed, n)
	}
	ct, _ := encryptRandom(t, 499)
	if _, err := core.Submit(context.Background(), "rotsum", testTenant, ct); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit: %v", err)
	}
}

// TestLoadShedding: with the only executor slot held and room for two
// requests in the core, the other ten are rejected at once with
// ErrOverloaded rather than queued, and the two admitted complete.
func TestLoadShedding(t *testing.T) {
	reg := testEnv(t)
	p := newParker()
	defer p.release()
	core := NewCore(reg, Config{Workers: 1, AdmissionLimit: 2, RequestTimeout: time.Hour, testPreRun: p.park})
	defer core.Close(context.Background())
	const n = 12
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(500 + i)
	}
	wait := submitAll(t, core, "square", seeds...)
	waitFor(t, "one parked run, one slot waiter and the rest shed", func() bool {
		return p.entered.Load() == 1 && core.Metrics().QueueDepth.Load() == 1 && core.Metrics().Rejected.Load() == n-2
	})
	p.release()
	var shed, completed int
	for _, err := range wait() {
		switch {
		case errors.Is(err, ErrOverloaded):
			shed++
		case err == nil:
			completed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if shed != n-2 || completed != 2 {
		t.Fatalf("shed %d, completed %d; want %d and 2", shed, completed, n-2)
	}
}

// TestRequestTimeout: a request whose deadline passes while it waits for
// the held executor slot returns a timeout, counted once in Timeouts.
func TestRequestTimeout(t *testing.T) {
	reg := testEnv(t)
	p := newParker()
	defer p.release()
	core := NewCore(reg, Config{Workers: 1, RequestTimeout: time.Hour, testPreRun: p.park})
	defer core.Close(context.Background())
	wait := submitAll(t, core, "square", 600)
	waitFor(t, "the parked run", func() bool { return p.entered.Load() == 1 })
	ct, _ := encryptRandom(t, 601)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := core.Submit(ctx, "square", testTenant, ct); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if snap := core.Metrics().Snapshot(); snap.Timeouts != 1 || snap.Errors != 0 {
		t.Fatalf("timeouts=%d errors=%d, want 1/0", snap.Timeouts, snap.Errors)
	}
	p.release()
	if err := wait()[0]; err != nil {
		t.Fatalf("parked request: %v", err)
	}
}

// TestTimeoutCountedOnce: a request whose deadline passes while it
// executes counts in Timeouts only — a one-shot and a session step alike
// — and a session step rejected as a bad request counts in neither
// Timeouts nor Errors.
func TestTimeoutCountedOnce(t *testing.T) {
	reg := testEnv(t)
	ct, _ := encryptRandom(t, 700)
	cases := []struct {
		name string
		run  func(*testing.T, *Core, context.Context) error
	}{
		{"Submit", func(t *testing.T, core *Core, ctx context.Context) error {
			_, err := core.Submit(ctx, "square", testTenant, ct)
			return err
		}},
		{"SessionStep", func(t *testing.T, core *Core, ctx context.Context) error {
			info, err := core.CreateSession(testTenant, "square")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := core.SessionStep(context.Background(), info.ID, nil); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("empty first step: %v, want ErrBadRequest", err)
			}
			_, _, err = core.SessionStep(ctx, info.ID, ct)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			core := NewCore(reg, Config{Workers: 1, testPreRun: func(string) { time.Sleep(100 * time.Millisecond) }})
			defer core.Close(context.Background())
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if err := tc.run(t, core, ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want deadline exceeded, got %v", err)
			}
			if snap := core.Metrics().Snapshot(); snap.Timeouts != 1 || snap.Errors != 0 {
				t.Fatalf("timeouts=%d errors=%d, want 1/0", snap.Timeouts, snap.Errors)
			}
		})
	}
}

// TestHealthzClusterDown: with a cluster backend, all workers down and
// the local replay forbidden (RequireCluster), /healthz turns 503 with a JSON body reporting
// workers_healthy and circuit_state — the load-balancer signal that this
// replica cannot currently serve.
func TestHealthzClusterDown(t *testing.T) {
	reg := testEnv(t)
	w := cluster.NewWorker(reg.Params)
	dialer := cluster.NewPipeDialer(w)
	eng, err := cluster.NewEngine(reg.Params, []cluster.Dialer{dialer}, cluster.Options{
		RPCTimeout:        200 * time.Millisecond,
		DialTimeout:       200 * time.Millisecond,
		RetryBackoff:      5 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	core := NewCore(reg, Config{Backends: []BackendSpec{{Engine: eng}}, RequireCluster: true})
	defer core.Close(context.Background())
	handler := NewHandler(core, HandlerConfig{})

	get := func() (int, Health) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
		}
		return rec.Code, h
	}

	if code, h := get(); code != http.StatusOK || !h.OK || h.Healthy != 1 {
		t.Fatalf("healthy cluster: code %d, health %+v", code, h)
	}

	// Kill the only worker and wait for the heartbeat to notice.
	dialer.Kill()
	deadline := time.Now().Add(2 * time.Second)
	for eng.HealthyWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("engine never marked the killed worker unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, h := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with cluster down = %d, want 503", code)
	}
	if h.OK || h.Healthy != 0 || !h.Cluster {
		t.Fatalf("health body %+v, want ok=false workers_healthy=0", h)
	}
	if h.Circuit == "" {
		t.Fatal("health body missing circuit_state")
	}

	// Revive: the heartbeat redials and /healthz recovers.
	dialer.Revive()
	deadline = time.Now().Add(2 * time.Second)
	for {
		if code, h := get(); code == http.StatusOK && h.OK && h.Healthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never recovered after worker revival")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
