package serve

import (
	"context"
	"testing"
	"time"

	"cinnamon/internal/cluster"
)

// newTestCluster spins up n in-process workers over net.Pipe transports and
// returns the cluster engine plus the dialers (for killing workers).
func newTestCluster(t *testing.T, n int) (*cluster.Engine, []*cluster.PipeDialer) {
	t.Helper()
	reg := testEnv(t)
	dialers := make([]*cluster.PipeDialer, n)
	ds := make([]cluster.Dialer, n)
	for i := range dialers {
		dialers[i] = cluster.NewPipeDialer(cluster.NewWorker(reg.Params))
		ds[i] = dialers[i]
	}
	eng, err := cluster.NewEngine(reg.Params, ds, cluster.Options{})
	if err != nil {
		t.Fatalf("cluster.NewEngine: %v", err)
	}
	t.Cleanup(eng.Close)
	return eng, dialers
}

// TestServeClusterFallbackToEmulator: with every worker dead the core must
// keep serving correct results by replaying requests on its local executor:
// the first post-kill request fails on the cluster (the engine fails typed)
// and counts exactly one local replay in EmulatorFallbacks.
func TestServeClusterFallbackToEmulator(t *testing.T) {
	reg := testEnv(t)
	eng, dialers := newTestCluster(t, 3)

	core := NewCore(reg, Config{Workers: 2, Backends: []BackendSpec{{Engine: eng}}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		core.Close(ctx)
	}()

	// Warm run through the cluster, then kill every worker.
	ct, _ := encryptRandom(t, 99)
	if _, err := core.Submit(context.Background(), "quartic", testTenant, ct); err != nil {
		t.Fatalf("warm cluster run: %v", err)
	}
	for _, d := range dialers {
		d.Kill()
	}

	out, err := core.Submit(context.Background(), "quartic", testTenant, ct)
	if err != nil {
		t.Fatalf("degraded-cluster run: %v", err)
	}
	got := decryptDecode(t, out)
	want := decryptDecode(t, reference(t, "quartic", ct))
	if e := maxSlotErr(got, want); e > 1e-3 {
		t.Fatalf("degraded result off by %g vs reference", e)
	}
	snap := core.Metrics().Snapshot()
	if snap.EmulatorFallbacks != 1 {
		t.Fatalf("first post-kill request counted %d local replays, want 1", snap.EmulatorFallbacks)
	}
	if snap.Cluster == nil || snap.Cluster.Healthy == snap.Cluster.Workers {
		t.Fatalf("cluster snapshot should report lost workers: %+v", snap.Cluster)
	}
}
