package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/emulator"
	"cinnamon/internal/sched"
	"cinnamon/internal/serve"
)

// shallowPrograms are the catalog programs every registry compiles to
// emulator variants; the per-program probes run on each of them.
var shallowPrograms = []string{"square", "quartic", "rotsum", "wavg4", "logreg16", "xform64"}

const deepProgram = "logreg16-deep"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counters is everything the program's public snapshots report, read at
// one instant.
type counters struct {
	snap                serve.Snapshot
	keys                serve.KeyCacheStats
	allocBytes          float64
	gcCPU, totalCPU     float64
	wireWrite, wireRead int64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (s *server) counters() counters {
	c := counters{snap: s.core.Metrics().Snapshot(), keys: s.reg.KeyCacheStats()}
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	c.allocBytes = float64(rs[0].Value.Uint64())
	c.gcCPU, c.totalCPU = rs[1].Value.Float64(), rs[2].Value.Float64()
	c.wireWrite, c.wireRead = s.wire.writeNs.Load(), s.wire.readWaitNs.Load()
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the counter deltas over the traced measurement into
// per-layer metrics; ops is the number of verified operations in it. The
// quantile metrics (serve.core.*, cluster.collective_*, keycache.stall_p50_ms,
// bootstrap.tick_p50_ms) come from the program's cumulative histograms, so
// they cover the traced server's whole life: its warm-up, its warm pass and
// the traced window.
func counterMetrics(a, z counters, ops float64) map[string]metric {
	m := map[string]metric{}
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	sa, sz := a.snap, z.snap
	batches := sz.Batches - sa.Batches
	count("serve.batch.batches", batches)
	m["serve.batch.occupancy"] = metric{ratio(float64(sz.BatchedRequests-sa.BatchedRequests), float64(batches)), "ratio"}
	m["serve.core.p50_ms"] = metric{sz.Latency.P50Ms, "ms"}
	m["serve.core.tail_ms"] = metric{sz.Latency.P99Ms, "ms"}
	count("serve.shed", sz.Rejected-sa.Rejected)
	count("serve.timeouts", sz.Timeouts-sa.Timeouts)
	count("serve.errors", sz.Errors-sa.Errors)
	count("serve.panics", sz.Panics-sa.Panics)
	count("serve.emulator_fallbacks", sz.EmulatorFallbacks-sa.EmulatorFallbacks)
	count("serve.failovers", sz.Failovers-sa.Failovers)

	var ca, cz clusterCounters
	ca.from(sa)
	cz.from(sz)
	m["cluster.collectives_per_req"] = metric{ratio(float64(cz.collectives-ca.collectives), ops), "count"}
	m["cluster.bytes_per_req"] = metric{ratio(float64(cz.bytes-ca.bytes), ops), "bytes"}
	m["cluster.collective_p50_ms"] = metric{cz.p50, "ms"}
	m["cluster.collective_tail_ms"] = metric{cz.p99, "ms"}
	m["cluster.wire.write_ms_per_req"] = metric{ratio(float64(z.wireWrite-a.wireWrite)/1e6, ops), "ms"}
	m["cluster.wire.read_wait_ms_per_req"] = metric{ratio(float64(z.wireRead-a.wireRead)/1e6, ops), "ms"}
	count("cluster.key_pushes", cz.pushes-ca.pushes)
	count("cluster.key_evicts", cz.evicts-ca.evicts)
	count("cluster.key_repushes", cz.repushes-ca.repushes)
	count("cluster.local_fallbacks", cz.fallbacks-ca.fallbacks)
	count("cluster.reconnects", cz.reconnects-ca.reconnects)
	count("cluster.corrupt_frames", cz.corrupt-ca.corrupt)

	ka, kz := a.keys, z.keys
	hits, misses := kz.Hits-ka.Hits, kz.Misses-ka.Misses
	m["keycache.hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	count("keycache.cold_stalls", kz.ColdMissStalls-ka.ColdMissStalls)
	stall := 0.0
	if kz.ColdMissStallMs != nil {
		stall = kz.ColdMissStallMs.P50Ms
	}
	m["keycache.stall_p50_ms"] = metric{stall, "ms"}
	count("keycache.evictions", kz.Evictions-ka.Evictions)
	count("keycache.prefetch_fires", kz.PrefetchFires-ka.PrefetchFires)
	m["keycache.resident_mb"] = metric{float64(kz.ResidentBytes) / (1 << 20), "MiB"}

	boots, ticks := sz.Bootstraps-sa.Bootstraps, sz.BootstrapBatches-sa.BootstrapBatches
	count("bootstrap.ticks", ticks)
	m["bootstrap.tick_size"] = metric{ratio(float64(boots), float64(ticks)), "count"}
	tick := 0.0
	if sz.BootstrapMs != nil {
		tick = sz.BootstrapMs.P50Ms
	}
	m["bootstrap.tick_p50_ms"] = metric{tick, "ms"}
	steps := sz.SessionSteps - sa.SessionSteps
	m["bootstrap.per_step"] = metric{ratio(float64(boots), float64(steps)), "count"}
	count("session.steps", steps)
	count("sessionlog.errors", sz.SessionLogErrors-sa.SessionLogErrors)

	m["runtime.alloc_kb_per_req"] = metric{ratio((z.allocBytes-a.allocBytes)/1024, ops), "KiB"}
	m["runtime.gc_cpu_frac"] = metric{ratio(z.gcCPU-a.gcCPU, z.totalCPU-a.totalCPU), "ratio"}
	return m
}

// clusterCounters flattens the primary backend's transport snapshot;
// without a cluster every field stays zero.
type clusterCounters struct {
	collectives, bytes, pushes, evicts, repushes, fallbacks, reconnects, corrupt int64
	p50, p99                                                                     float64
}

func (c *clusterCounters) from(s serve.Snapshot) {
	if s.Cluster == nil {
		return
	}
	cs := s.Cluster
	c.collectives = cs.Broadcasts + cs.Aggregations
	c.bytes = cs.BytesSent + cs.BytesReceived
	c.pushes, c.evicts, c.repushes = cs.KeyPushes, cs.KeyEvicts, cs.KeyRepushes
	c.fallbacks, c.reconnects, c.corrupt = cs.LocalFallbacks, cs.Reconnects, cs.CorruptFrames
	c.p50, c.p99 = cs.CollectiveLatency.P50Ms, cs.CollectiveLatency.P99Ms
}

// prober times single calls into one layer at a time, with nothing else
// running, and keeps each probe's median and quartiles.
type prober struct {
	tr  *tracer
	out map[string]quartiles
}

// run calls fn once to warm caches, then n times; fn returns the time of
// the part it measures. Results are kept in units of unit.
func (p *prober) run(name string, unit time.Duration, n int, fn func() (time.Duration, error)) error {
	if _, err := fn(); err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		d, err := fn()
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		p.tr.probeSpan(name, t0, t0.Add(d))
		xs[i] = float64(d) / float64(unit)
	}
	p.out[name] = quartilesOf(xs)
	return nil
}

// timed adapts a call whose whole duration is the measurement.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
}

// evaluatorFor builds an evaluator over a key map with the serving
// layer's "rlk"/"conj"/"rot:<k>" naming.
func evaluatorFor(params *ckks.Parameters, keys map[string]*ckks.EvalKey) (*ckks.Evaluator, *ckks.RotationKeySet, error) {
	rtks := &ckks.RotationKeySet{Keys: map[int]*ckks.EvalKey{}, Conj: keys["conj"]}
	for id, k := range keys {
		if off, ok := strings.CutPrefix(id, "rot:"); ok {
			r, err := strconv.Atoi(off)
			if err != nil {
				return nil, nil, fmt.Errorf("key id %q: %w", id, err)
			}
			rtks.Keys[r] = k
		}
	}
	return ckks.NewEvaluator(params, keys["rlk"], rtks), rtks, nil
}

// probeInputs is what the probes run on: a key set covering every
// compiled program (never registered with the server, so the key cache
// is untouched) and a fresh ciphertext at the input level.
type probeInputs struct {
	bundle []byte
	ct     []byte
}

// probes times each layer's public entry points solo, at the server's
// parameters. Layers the workload's registry does not host are skipped;
// their metrics then read 0.
func (b *bench) probes(s *server, tr *tracer) (map[string]quartiles, error) {
	p := &prober{tr: tr, out: map[string]quartiles{}}
	params := s.reg.Params
	keys, err := serve.ReadKeyBundle(bytes.NewReader(b.probe.bundle), params)
	if err != nil {
		return nil, err
	}
	ct, err := ckks.ReadCiphertext(bytes.NewReader(b.probe.ct), params)
	if err != nil {
		return nil, err
	}
	ev, rtks, err := evaluatorFor(params, keys)
	if err != nil {
		return nil, err
	}
	enc := ckks.NewEncoder(params)
	r := params.Ring
	rlk := keys["rlk"]
	const us, msec = time.Microsecond, time.Millisecond

	// Kernels and evaluator operations.
	coeff := ct.C0.Copy()
	if err := r.INTT(coeff); err != nil {
		return nil, err
	}
	scratch := r.NewPoly(ct.C0.Basis)
	scratch.IsNTT = true
	rot := 1
	for rot < params.Slots() && rtks.Keys[rot] == nil {
		rot++
	}
	var buf bytes.Buffer
	weights := make([]complex128, params.Slots())
	for i := range weights {
		weights[i] = complex(float64(i%7)/7-0.5, 0)
	}
	kernels := []struct {
		name string
		fn   func() (time.Duration, error)
	}{
		{"ring.ntt_us", func() (time.Duration, error) {
			q := coeff.Copy()
			t0 := time.Now()
			err := r.NTT(q)
			return time.Since(t0), err
		}},
		{"ring.intt_us", func() (time.Duration, error) {
			q := ct.C0.Copy()
			t0 := time.Now()
			err := r.INTT(q)
			return time.Since(t0), err
		}},
		{"ring.modup_us", timed(func() error {
			e, err := r.ModUp(coeff, params.PBasis)
			if err == nil {
				r.PutPoly(e)
			}
			return err
		})},
		{"ring.moddown_us", func() (time.Duration, error) {
			e, err := r.ModUp(coeff, params.PBasis)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			d, err := r.ModDown(e, params.PBasis)
			el := time.Since(t0)
			r.PutPoly(e)
			if err == nil {
				r.PutPoly(d)
			}
			return el, err
		}},
		{"ring.automorphism_us", timed(func() error { return r.Automorphism(ct.C0, r.GaloisElementForRotation(1), scratch) })},
		{"ckks.keyswitch_us", timed(func() error {
			f0, f1, err := ev.KeySwitch(ct.C1, rlk)
			if err == nil {
				r.PutPoly(f0)
				r.PutPoly(f1)
			}
			return err
		})},
		{"ckks.mulrelin_us", timed(func() error { _, err := ev.MulRelin(ct, ct); return err })},
		{"ckks.rotate_us", timed(func() error { _, err := ev.Rotate(ct, rot); return err })},
		{"ckks.rescale_us", timed(func() error { _, err := ev.Rescale(ct); return err })},
		{"ckks.ct_marshal_us", timed(func() error { buf.Reset(); return ct.Write(&buf) })},
		{"ckks.ct_unmarshal_us", timed(func() error { _, err := ckks.ReadCiphertext(bytes.NewReader(b.probe.ct), params); return err })},
		{"ckks.encode_us", timed(func() error { _, err := enc.Encode(weights, params.MaxLevel(), params.DefaultScale()); return err })},
	}
	for _, k := range kernels {
		if err := p.run(k.name, us, 21, k.fn); err != nil {
			return nil, err
		}
	}

	// Per-program executors: the emulator on each compiled batch size,
	// the scheduler's replay executor, and the Reference closure that
	// cluster backends run.
	ctx := context.Background()
	for _, name := range shallowPrograms {
		prog, ok := s.reg.Program(name)
		if !ok || prog.Bootstrapped {
			continue
		}
		for _, n := range []int{1, 4} {
			v := prog.VariantFor(n)
			provider := func() *emulator.CKKSProvider {
				pv := emulator.NewCKKSProvider(params)
				pv.Plaintexts, pv.Keys = prog.Plaintexts, keys
				for i := 0; i < v.Batch; i++ {
					pv.Inputs[fmt.Sprintf("x%d", i)] = ct
				}
				return pv
			}
			m := emulator.New(r, v.Module, provider())
			err := p.run(fmt.Sprintf("emulator.run_ms.%s.b%d", name, v.Batch), msec, 7, timed(func() error {
				m.Reset(provider())
				return m.Run()
			}))
			if err != nil {
				return nil, err
			}
		}
		if err := p.run("sched.exec_ms."+name, msec, 7, timed(func() error {
			_, err := prog.Executor().Run(ctx, ev, ct, sched.RunOpts{})
			return err
		})); err != nil {
			return nil, err
		}
		if err := p.run("workloads.reference_ms."+name, msec, 7, timed(func() error {
			_, err := prog.Spec.Reference(ev, enc, ct)
			return err
		})); err != nil {
			return nil, err
		}
	}

	// Bootstrapping and the deep program, where the registry hosts them.
	if prog, ok := s.reg.Program(deepProgram); ok && s.reg.Pre != nil {
		bs, err := bootstrap.NewBootstrapperFromKeys(s.reg.Pre, rlk, rtks)
		if err != nil {
			return nil, err
		}
		low, err := bs.Evaluator().DropLevel(ct, 0)
		if err != nil {
			return nil, err
		}
		if err := p.run("bootstrap.solo_ms", msec, 3, timed(func() error { _, err := bs.Bootstrap(low); return err })); err != nil {
			return nil, err
		}
		if err := p.run("bootstrap.batch4_ms", msec, 3, timed(func() error {
			items := make([]*bootstrap.BatchItem, 4)
			for i := range items {
				items[i] = &bootstrap.BatchItem{BS: bs, CT: low}
			}
			bootstrap.BootstrapBatch(items)
			for _, it := range items {
				if it.Err != nil {
					return it.Err
				}
			}
			return nil
		})); err != nil {
			return nil, err
		}
		refresh := func(_ context.Context, c *ckks.Ciphertext) (*ckks.Ciphertext, error) { return bs.Bootstrap(c) }
		if err := p.run("sched.exec_ms."+deepProgram, msec, 3, timed(func() error {
			_, err := prog.Executor().Run(ctx, ev, ct, sched.RunOpts{Refresh: refresh})
			return err
		})); err != nil {
			return nil, err
		}
	}

	// One keyswitch collective over the pipe cluster.
	if len(s.engines) > 0 {
		eng := s.engines[0]
		if err := p.run("cluster.keyswitch_us", us, 21, timed(func() error {
			f0, f1, err := eng.KeySwitch(ct.C1, rlk)
			if err == nil {
				r.PutPoly(f0)
				r.PutPoly(f1)
			}
			return err
		})); err != nil {
			return nil, err
		}
	}

	// A cold reload: visiting the tenants round-robin with only a couple
	// of bundles resident makes every visit a spill reload.
	if s.reg.KeyCacheStats().BudgetBytes > 0 && len(b.tenants) > 3 {
		i := 0
		if err := p.run("keycache.reload_ms", msec, 2*len(b.tenants), timed(func() error {
			id := b.tenants[i%len(b.tenants)].id
			i++
			if _, ok := s.reg.TenantKeys(id); !ok {
				return fmt.Errorf("tenant %s lost its keys", id)
			}
			return nil
		})); err != nil {
			return nil, err
		}
	}

	// One real TCP round trip of square through a loopback listener.
	if _, ok := s.reg.Program("square"); ok {
		ts := httptest.NewServer(s.h)
		e := b.pool[0]
		err := p.run("serve.http.loopback_rtt_ms", msec, 21, timed(func() error {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/programs/square:run", bytes.NewReader(e.body))
			if err != nil {
				return err
			}
			req.Header.Set("X-Cinnamon-Tenant", b.tenants[e.tenant].id)
			resp, err := ts.Client().Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := new(bytes.Buffer).ReadFrom(resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("square: %s", resp.Status)
			}
			return nil
		}))
		ts.Close()
		if err != nil {
			return nil, err
		}
	}
	return p.out, nil
}
