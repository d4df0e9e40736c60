package serve

import (
	"context"
	"testing"
	"time"

	"cinnamon/internal/cluster"
)

// newFailoverCluster builds a cluster engine with short RPC retries and a
// fast heartbeat, so killing its dialers fails runs typed (ErrDegraded)
// quickly and reviving them is noticed within a few heartbeats.
func newFailoverCluster(t *testing.T, n int) (*cluster.Engine, []*cluster.PipeDialer) {
	t.Helper()
	reg := testEnv(t)
	dialers := make([]*cluster.PipeDialer, n)
	ds := make([]cluster.Dialer, n)
	for i := range dialers {
		dialers[i] = cluster.NewPipeDialer(cluster.NewWorker(reg.Params))
		ds[i] = dialers[i]
	}
	eng, err := cluster.NewEngine(reg.Params, ds, cluster.Options{
		RPCTimeout:        2 * time.Second,
		DialTimeout:       2 * time.Second,
		Retries:           1,
		RetryBackoff:      10 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.NewEngine: %v", err)
	}
	t.Cleanup(eng.Close)
	return eng, dialers
}

// TestBackendFailover: with two independent cluster backends, killing the
// primary's every worker moves traffic to the secondary within the same
// request (no wrong or failed decrypts), reviving it restores full health,
// and killing the secondary fails traffic back.
func TestBackendFailover(t *testing.T) {
	reg := testEnv(t)
	engA, dialersA := newFailoverCluster(t, 2)
	engB, dialersB := newFailoverCluster(t, 2)
	core := NewCore(reg, Config{
		Workers:          1,
		RequireCluster:   true,
		CircuitThreshold: 2,
		CircuitCooldown:  200 * time.Millisecond,
		Backends:         []BackendSpec{{Name: "east", Engine: engA}, {Name: "west", Engine: engB}},
	})
	defer closeCoreT(t, core)
	ctx := context.Background()

	submitVerified := func(seed int64) {
		t.Helper()
		ct, _ := encryptRandom(t, seed)
		out, err := core.Submit(ctx, "square", testTenant, ct)
		if err != nil {
			t.Fatalf("Submit(seed %d): %v", seed, err)
		}
		want := decryptDecode(t, reference(t, "square", ct))
		if e := maxSlotErr(decryptDecode(t, out), want); e > 1e-2 {
			t.Fatalf("wrong decrypt after seed %d: max slot err %g", seed, e)
		}
	}

	submitVerified(1) // warm: primary (east) serves
	h := core.Health()
	if len(h.Backends) != 2 {
		t.Fatalf("healthz backends = %d, want 2", len(h.Backends))
	}
	for _, bh := range h.Backends {
		if bh.Workers != 2 || bh.Healthy != 2 || bh.Circuit != "closed" {
			t.Fatalf("backend %q not healthy at warm-up: %+v", bh.Name, bh)
		}
		if bh.LastHandshakeMs < 0 {
			t.Fatalf("backend %q reports no handshake after serving", bh.Name)
		}
	}

	for _, d := range dialersA {
		d.Kill()
	}
	// The very next submission must succeed — east fails, the chunk loop
	// moves to west — and decrypt correctly.
	submitVerified(2)
	if got := core.met.Failovers.Load(); got < 1 {
		t.Fatalf("failovers_total = %d, want >= 1", got)
	}
	h = core.Health()
	var east, west BackendHealth
	for _, bh := range h.Backends {
		switch bh.Name {
		case "east":
			east = bh
		case "west":
			west = bh
		}
	}
	if !west.Primary || east.Primary {
		t.Fatalf("primary did not move: east=%+v west=%+v", east, west)
	}

	// Revive east: heartbeat redials (with jittered backoff) and the
	// recovery loop re-warms keys; it must return to full health.
	for _, d := range dialersA {
		d.Revive()
	}
	deadline := time.Now().Add(10 * time.Second)
	for engA.HealthyWorkers() != engA.NChips() {
		if time.Now().After(deadline) {
			t.Fatalf("east never recovered: %d/%d workers healthy", engA.HealthyWorkers(), engA.NChips())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill west: traffic fails back to the recovered east, still correct.
	for _, d := range dialersB {
		d.Kill()
	}
	before := core.met.Failovers.Load()
	submitVerified(3)
	if got := core.met.Failovers.Load(); got <= before {
		t.Fatalf("failovers_total did not advance on fail-back: %d -> %d", before, got)
	}
	for _, d := range dialersB {
		d.Revive()
	}
}

// TestBackendsAllDownRequireCluster: with every backend dead and the local
// replay forbidden, submissions fail typed with cluster.ErrDegraded (503), and
// /healthz flips unhealthy.
func TestBackendsAllDownRequireCluster(t *testing.T) {
	reg := testEnv(t)
	eng, dialers := newFailoverCluster(t, 2)
	core := NewCore(reg, Config{
		Workers:          1,
		RequireCluster:   true,
		CircuitThreshold: 2,
		CircuitCooldown:  time.Minute,
		Backends:         []BackendSpec{{Name: "only", Engine: eng}},
	})
	defer closeCoreT(t, core)

	ct, _ := encryptRandom(t, 4)
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	for _, d := range dialers {
		d.Kill()
	}
	var lastErr error
	for i := 0; i < 5; i++ {
		_, lastErr = core.Submit(context.Background(), "square", testTenant, ct)
		if lastErr == nil {
			t.Fatal("submit succeeded with the whole backend set dead and the local replay forbidden")
		}
	}
	// Health must report the outage once no healthy workers remain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := core.Health(); !h.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz stayed OK with every backend dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, d := range dialers {
		d.Revive()
	}
}

// TestBackendUnnamedSpecIsC0: a BackendSpec without a name surfaces as
// backend "c<index>" in health, and the single-valued cluster fields
// report it as the primary.
func TestBackendUnnamedSpecIsC0(t *testing.T) {
	reg := testEnv(t)
	eng, _ := newFailoverCluster(t, 2)
	core := NewCore(reg, Config{Workers: 1, Backends: []BackendSpec{{Engine: eng}}})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 8)
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	h := core.Health()
	if len(h.Backends) != 1 || h.Backends[0].Name != "c0" || !h.Backends[0].Primary {
		t.Fatalf("single-backend health backends = %+v, want one primary named c0", h.Backends)
	}
	if !h.Cluster || h.Workers != 2 {
		t.Fatalf("single-valued cluster fields regressed: %+v", h)
	}
}

// TestBackendPrimaryStaysSticky: after failing over from a 3-worker
// backend to a 2-worker one, reviving the wider backend does not take
// traffic back — the narrow backend stays primary until it fails itself.
func TestBackendPrimaryStaysSticky(t *testing.T) {
	reg := testEnv(t)
	engWide, dialersWide := newFailoverCluster(t, 3)
	engNarrow, dialersNarrow := newFailoverCluster(t, 2)
	core := NewCore(reg, Config{
		Workers:          1,
		RequireCluster:   true,
		CircuitThreshold: 2,
		CircuitCooldown:  200 * time.Millisecond,
		Backends:         []BackendSpec{{Name: "wide", Engine: engWide}, {Name: "narrow", Engine: engNarrow}},
	})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 12)
	submitOn := func(want string) {
		t.Helper()
		if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if got := core.backends.primaryBackend().name; got != want {
			t.Fatalf("primary = %q, want %q", got, want)
		}
	}

	submitOn("wide")
	for _, d := range dialersWide {
		d.Kill()
	}
	submitOn("narrow")
	for _, d := range dialersWide {
		d.Revive()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !engWide.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("wide never recovered: %d/%d workers healthy", engWide.HealthyWorkers(), engWide.NChips())
		}
		time.Sleep(20 * time.Millisecond)
	}
	failovers := core.met.Failovers.Load()
	for i := 0; i < 3; i++ {
		submitOn("narrow")
	}
	if got := core.met.Failovers.Load(); got != failovers {
		t.Fatalf("failovers_total moved %d -> %d with the primary healthy", failovers, got)
	}
	for _, d := range dialersNarrow {
		d.Kill()
	}
	submitOn("wide")
	for _, d := range dialersNarrow {
		d.Revive()
	}
}

// TestBackendRecoversWithoutHeartbeat: a backend whose engine runs no
// heartbeat still comes back after a worker loss that opened no circuit —
// the recovery loop probes every backend with a worker down, not only one
// behind an open breaker.
func TestBackendRecoversWithoutHeartbeat(t *testing.T) {
	reg := testEnv(t)
	dialers := []*cluster.PipeDialer{
		cluster.NewPipeDialer(cluster.NewWorker(reg.Params)),
		cluster.NewPipeDialer(cluster.NewWorker(reg.Params)),
	}
	eng, err := cluster.NewEngine(reg.Params, []cluster.Dialer{dialers[0], dialers[1]}, cluster.Options{
		RPCTimeout:   2 * time.Second,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	core := NewCore(reg, Config{
		Workers:         1,
		CircuitCooldown: 200 * time.Millisecond,
		Backends:        []BackendSpec{{Engine: eng}},
	})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 13)
	dialers[1].Kill()
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatalf("Submit with a dead worker: %v", err)
	}
	if eng.Healthy() {
		t.Fatal("run never met the dead worker")
	}
	dialers[1].Revive()
	deadline := time.Now().Add(5 * time.Second)
	for !eng.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("backend never recovered: %d/%d workers healthy", eng.HealthyWorkers(), eng.NChips())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
