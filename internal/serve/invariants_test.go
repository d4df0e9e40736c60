package serve

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/emulator"
	"cinnamon/internal/workloads"
)

// sameCiphertext reports where two ciphertexts differ, limb by limb; nil
// means bit-identical (same level, scale and every residue of C0 and C1).
func sameCiphertext(a, b *ckks.Ciphertext) error {
	if a.Level() != b.Level() || a.Scale != b.Scale {
		return fmt.Errorf("shape %d/%g vs %d/%g", a.Level(), a.Scale, b.Level(), b.Scale)
	}
	for j := range a.C0.Limbs {
		for i := range a.C0.Limbs[j] {
			if a.C0.Limbs[j][i] != b.C0.Limbs[j][i] || a.C1.Limbs[j][i] != b.C1.Limbs[j][i] {
				return fmt.Errorf("limb %d coeff %d differs", j, i)
			}
		}
	}
	return nil
}

// emulate runs prog's emulator variant for len(cts) streams, one input
// per batch slot, and returns every slot's output.
func emulate(t *testing.T, reg *Registry, prog *Program, cts []*ckks.Ciphertext) []*ckks.Ciphertext {
	t.Helper()
	v := prog.VariantFor(len(cts))
	if v.Batch != len(cts) {
		t.Fatalf("%s: VariantFor(%d) is batch %d", prog.Spec.Name, len(cts), v.Batch)
	}
	prov := emulator.NewCKKSProvider(reg.Params)
	prov.Plaintexts, prov.Keys = prog.Plaintexts, env.keys
	for i, ct := range cts {
		prov.Inputs[fmt.Sprintf("x%d", i)] = ct
	}
	if err := emulator.New(reg.Params.Ring, v.Module, prov).Run(); err != nil {
		t.Fatalf("%s: emulator b%d: %v", prog.Spec.Name, v.Batch, err)
	}
	outs := make([]*ckks.Ciphertext, len(cts))
	for i := range cts {
		out, err := prov.Output(fmt.Sprintf("y%d", i), prog.OutLevel, prog.OutScale)
		if err != nil {
			t.Fatalf("%s: emulator b%d slot %d: %v", prog.Spec.Name, v.Batch, i, err)
		}
		outs[i] = out
	}
	return outs
}

// TestInvariantBitIdenticalAcrossPaths is the differential bit-identity
// invariant: every shallow catalog program gives limb-identical
// ciphertexts on every execution path — the emulator oracle at batch 1 and
// in each slot of batch 4, a local Core.Submit, a Core.Submit whose
// keyswitches run on a 2-worker pipe cluster, a Core.Submit whose cluster
// loses a worker mid-run and replays on the local executor, the
// workload's Reference closure, and the first step of a session.
func TestInvariantBitIdenticalAcrossPaths(t *testing.T) {
	reg := testEnv(t)
	eng, _ := newTestCluster(t, 2)
	local := NewCore(reg, Config{Workers: 2, BatchWait: time.Millisecond})
	clustered := NewCore(reg, Config{Workers: 2, Backends: []BackendSpec{{Engine: eng}}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		clustered.Close(ctx)
		local.Close(ctx)
	}()
	ctx := context.Background()

	for i, name := range reg.ProgramNames() {
		prog, _ := reg.Program(name)
		if prog.Bootstrapped {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cts := make([]*ckks.Ciphertext, 4)
			want := make([]*ckks.Ciphertext, len(cts))
			for k := range cts {
				cts[k], _ = encryptRandom(t, int64(4242+10*i+k))
				out, err := local.Submit(ctx, name, testTenant, cts[k])
				if err != nil {
					t.Fatalf("local submit: %v", err)
				}
				want[k] = out
			}
			check := func(path string, got *ckks.Ciphertext) {
				t.Helper()
				if err := sameCiphertext(got, want[0]); err != nil {
					t.Errorf("%s vs local executor: %v", path, err)
				}
			}
			check("emulator b1", emulate(t, reg, prog, cts[:1])[0])
			for k, out := range emulate(t, reg, prog, cts) {
				if err := sameCiphertext(out, want[k]); err != nil {
					t.Errorf("emulator b4 slot %d vs local executor: %v", k, err)
				}
			}
			out, err := clustered.Submit(ctx, name, testTenant, cts[0])
			if err != nil {
				t.Fatalf("cluster submit: %v", err)
			}
			check("cluster executor", out)

			// Degraded path: a worker dies after admission, so the backend
			// still reports healthy when execute picks it; the run fails on
			// the cluster (the engine fails typed) and replays locally.
			degEng, degDialers := newTestCluster(t, 2)
			degraded := NewCore(reg, Config{
				Workers:    1,
				Backends:   []BackendSpec{{Engine: degEng}},
				testPreRun: func(string) { degDialers[1].Kill() },
			})
			out, err = degraded.Submit(ctx, name, testTenant, cts[0])
			closeCoreT(t, degraded)
			if err != nil {
				t.Fatalf("degraded-cluster submit: %v", err)
			}
			check("degraded cluster, local replay", out)
			if degEng.Healthy() {
				t.Error("degraded run never met the dead worker")
			}
			if n := degraded.Metrics().Snapshot().EmulatorFallbacks; n != 1 {
				t.Errorf("degraded run counted %d local replays, want 1", n)
			}
			check("Reference", reference(t, name, cts[0]))
			info, err := local.CreateSession(testTenant, name)
			if err != nil {
				t.Fatal(err)
			}
			step, _, err := local.SessionStep(ctx, info.ID, cts[0])
			if err != nil {
				t.Fatalf("session step: %v", err)
			}
			check("session step 1", step)
			if e := maxSlotErr(decryptDecode(t, want[0]), decryptDecode(t, reference(t, name, cts[0]))); e > 1e-3 {
				t.Errorf("result off by %g vs reference", e)
			}
		})
	}

	snap := clustered.Metrics().Snapshot()
	if snap.Cluster == nil {
		t.Fatal("metrics snapshot missing cluster section in cluster mode")
	}
	if snap.Cluster.Broadcasts == 0 && snap.Cluster.Aggregations == 0 {
		t.Fatal("cluster counters show no collectives despite cluster-mode runs")
	}
	if snap.EmulatorFallbacks != 0 {
		t.Fatalf("healthy cluster run recorded %d local replays", snap.EmulatorFallbacks)
	}
	if localSnap := local.Metrics().Snapshot(); localSnap.Cluster != nil {
		t.Fatal("local-only core must not report a cluster section")
	}
}

// waitGoroutines polls until the goroutine count is back to base, failing
// with every stack once the deadline passes.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines, baseline %d\n%s", what, runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInvariantCloseLeaksNoGoroutines is the leak invariant: after
// Core.Close — a local core, a core over a pipe cluster whose key
// evictions fire the registry hook (then Engine.Close), a bootstrap core
// whose session step refreshed through a shared tick, and a durable core
// checkpointing to a session log — the goroutine count returns to its
// baseline, and a closed core's eviction hook is detached.
func TestInvariantCloseLeaksNoGoroutines(t *testing.T) {
	reg := testEnv(t)
	ctx := context.Background()
	ct, _ := encryptRandom(t, 77)
	reference(t, "square", ct) // start any lazily created helpers first

	// stepSession opens a session of program on core and runs its first step.
	stepSession := func(t *testing.T, core *Core, tenant, program string, ct *ckks.Ciphertext) {
		t.Helper()
		info, err := core.CreateSession(tenant, program)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.SessionStep(ctx, info.ID, ct); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("local", func(t *testing.T) {
		base := runtime.NumGoroutine()
		core := NewCore(reg, Config{Workers: 2})
		if _, err := core.Submit(ctx, "square", testTenant, ct); err != nil {
			t.Fatal(err)
		}
		stepSession(t, core, testTenant, "square", ct)
		if err := core.Close(ctx); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "after local Core.Close")
	})

	t.Run("cluster", func(t *testing.T) {
		// A budget of one and a half bundles keeps one tenant resident, so
		// every registration or reload below evicts the other.
		sq, _ := workloads.ServeWorkloadByName("square")
		kA, kB := genTenantKeys(t, reg.Params), genTenantKeys(t, reg.Params)
		size := bundleSize(t, kA)
		breg, err := NewRegistry(RegistryConfig{
			Literal:        env.lit,
			Programs:       []workloads.ServeWorkload{sq},
			KeyBudgetBytes: size + size/2,
			KeySpillDir:    t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		dialers := []cluster.Dialer{cluster.NewPipeDialer(cluster.NewWorker(reg.Params)), cluster.NewPipeDialer(cluster.NewWorker(reg.Params))}
		eng, err := cluster.NewEngine(reg.Params, dialers, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		core := NewCore(breg, Config{Workers: 2, Backends: []BackendSpec{{Engine: eng}}})
		if err := breg.RegisterTenant("a", kA); err != nil {
			t.Fatal(err)
		}
		if err := breg.RegisterTenant("b", kB); err != nil { // evicts a
			t.Fatal(err)
		}
		for _, tenant := range []string{"a", "b"} { // each reload evicts the other
			if _, err := core.Submit(ctx, "square", tenant, ct); err != nil {
				t.Fatalf("tenant %s: %v", tenant, err)
			}
		}
		if s := breg.KeyCacheStats(); s.Evictions < 3 {
			t.Fatalf("evictions = %d, want ≥ 3", s.Evictions)
		}
		if err := core.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if breg.evictHook.Load() != nil {
			t.Fatal("closed core left its eviction hook on the registry")
		}
		eng.Close()
		if err := breg.RegisterTenant("a", kA); err != nil { // evicts b, hook detached
			t.Fatal(err)
		}
		waitGoroutines(t, base, "after cluster Core.Close and Engine.Close")
	})

	t.Run("bootstrap", func(t *testing.T) {
		if testing.Short() {
			t.Skip("bootstrap ticks are expensive")
		}
		const tenant = "leak-deep"
		dreg, prog, _, pk := deepRegistry(t, tenant)
		params := dreg.Params
		pt, err := ckks.NewEncoder(params).Encode(prog.Spec.MakeInput(rand.New(rand.NewSource(78)), params.Slots()), params.MaxLevel(), params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		dct, err := ckks.NewEncryptor(params, pk).Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		core := NewCore(dreg, Config{Workers: 1, BootstrapWait: time.Millisecond, RequestTimeout: 10 * time.Minute})
		stepSession(t, core, tenant, prog.Spec.Name, dct)
		if snap := core.Metrics().Snapshot(); snap.BootstrapBatches < 1 {
			t.Fatalf("bootstrap ticks = %d, want the session step to refresh", snap.BootstrapBatches)
		}
		if err := core.Close(ctx); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "after bootstrap Core.Close")
	})

	t.Run("durable", func(t *testing.T) {
		logPath := filepath.Join(t.TempDir(), "sessions.log")
		base := runtime.NumGoroutine()
		for _, restart := range []bool{false, true} {
			core, err := NewDurableCore(reg, Config{Workers: 2, SessionLog: logPath})
			if err != nil {
				t.Fatal(err)
			}
			if restart && core.Metrics().Snapshot().SessionRestores != 1 {
				t.Fatal("reopened core restored no session from the log")
			}
			stepSession(t, core, testTenant, "square", ct)
			if err := core.Close(ctx); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base, fmt.Sprintf("after durable Core.Close (restart=%v)", restart))
		}
	})
}
