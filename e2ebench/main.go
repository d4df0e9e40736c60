// Command e2ebench is the repository's end-to-end serving benchmark. It
// sets up the serving stack of internal/serve in process with the stock
// cinnamon-serve settings, drives a seeded stream of encrypted requests
// through the public HTTP handler (serve.NewHandler, called in process),
// decrypts and checks every response outside the timed path, and prints
// user-facing metrics. With --trace 1 it measures the workload again with
// spans recorded around every call into the program, times each layer's
// public entry points solo, and prints per-layer metrics instead.
//
// Run from the repository root (run.sh builds it first):
//
//	bash e2ebench/run.sh --workload catalog-mix --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --compare old.jsonl,new.jsonl
//
// The workloads, their traffic and their predicted layer-to-metric links
// are in workloads.json. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Each run also
// appends its full report (host fingerprint, seed, output digest, failure
// breakdown, probe quartiles) to results.jsonl in the work directory, and
// a traced run writes its spans there as JSON lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name from workloads.json")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", 30, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass instead of end-to-end ones")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "e2ebench"), "directory for results, spans and server temp files")
	compare := flag.String("compare", "", "OLD,NEW: compare two results files; refused when their host fingerprints differ")
	flag.Parse()

	if *compare != "" {
		if err := compareFiles(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(*workload, *seed, *seconds, *traceFlag == 1, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := emit(rep, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// host is the fingerprint of the machine a result was measured on.
// Results are only comparable between equal fingerprints.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Kernel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

// report is one run's full record.
type report struct {
	Workload       string               `json:"workload"`
	Seed           int64                `json:"seed"`
	Seconds        int                  `json:"seconds"`
	Trace          bool                 `json:"trace"`
	Host           host                 `json:"host"`
	Loop           string               `json:"loop"`
	TailPercentile float64              `json:"tail_percentile"`
	LatencySamples int                  `json:"latency_samples"`
	OutputDigest   string               `json:"output_digest"`
	Attempted      int64                `json:"attempted"`
	Failed         int64                `json:"failed"`
	FailedFrac     float64              `json:"failed_frac"`
	Outcomes       map[string]int64     `json:"outcomes"`
	EndToEnd       map[string]metric    `json:"end_to_end"`
	PerLayer       map[string]metric    `json:"per_layer,omitempty"`
	Probes         map[string]quartiles `json:"probes,omitempty"`
	SpanFile       string               `json:"span_file,omitempty"`
	Warnings       []string             `json:"warnings,omitempty"`
	Errors         []string             `json:"errors,omitempty"`
	Correct        bool                 `json:"correct"`
}

func (r *report) count(out *outcomes) {
	if r.Outcomes == nil {
		r.Outcomes = map[string]int64{}
	}
	r.Attempted += out.attempted.Load()
	r.Failed += out.failed()
	r.Outcomes["shed"] += out.shed.Load()
	r.Outcomes["timeouts"] += out.timeouts.Load()
	r.Outcomes["errors"] += out.errors.Load()
	r.Outcomes["wrong"] += out.wrong.Load()
	r.FailedFrac = ratio(float64(r.Failed), float64(r.Attempted))
}

func run(name string, seed int64, seconds int, traced bool, workDir string) (*report, error) {
	specs, err := loadSpecs()
	if err != nil {
		return nil, err
	}
	sp, ok := specs[name]
	if !ok {
		names := make([]string, 0, len(specs))
		for n := range specs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown --workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	b, err := newBench(name, sp, seed, seconds, workDir, traced)
	if err != nil {
		return nil, err
	}

	rep := &report{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Host: fingerprint(),
		Loop: sp.Loop, TailPercentile: sp.TailPercentile}
	var times []setupTimes
	for i := sp.SubRuns; i < setupRuns; i++ {
		s, err := b.startServer()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, s.times)
		s.close()
	}
	// Each sub-run measures a fresh server. Throughput and heap take the
	// median over sub-runs, so one sub-run caught in a burst of host noise
	// or in an unlucky cache regime moves them little; latencies pool the
	// sub-runs' samples, which the tail rule needs.
	var latency, throughput, heap []float64
	worst := 0.0
	for i := 0; i < sp.SubRuns; i++ {
		heap0 := liveHeap()
		s, err := b.startServer()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, s.times)
		b.warmPass(s)
		m, verr := b.measure(s, nil)
		rep.count(&m.out)
		switch {
		case verr != nil:
			rep.Errors = append(rep.Errors, verr.Error())
		case rep.OutputDigest == "":
			rep.OutputDigest = m.digest
		case m.digest != rep.OutputDigest:
			rep.Errors = append(rep.Errors, fmt.Sprintf("sub-run %d digest %s differs from %s", i, m.digest, rep.OutputDigest))
		}
		heap = append(heap, float64(liveHeap()-heap0)/(1<<20))
		latency = append(latency, m.latency...)
		throughput = append(throughput, m.throughput)
		worst = max(worst, m.worstErr)
		s.close()
	}
	if traced {
		// The traced pass gets a fresh server too, so the quantiles of the
		// program's cumulative histograms cover (beyond one warm-up and one
		// warm pass) only the traced window.
		s, err := b.startServer()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.warmPass(s)
		err = b.tracedPass(s, rep, median(latency), times)
		s.close()
		if err != nil {
			return nil, err
		}
	}
	rep.LatencySamples = len(latency)
	if !supportsTail(len(latency), sp.TailPercentile) {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("%d latency samples put fewer than ten beyond p%g; the tail rule supports p%g", len(latency), sp.TailPercentile, tailPercentile(len(latency))))
	}
	setup := make([]float64, len(times))
	for i, t := range times {
		setup[i] = t.total.Seconds()
	}
	precision := 64.0
	switch {
	case math.IsNaN(worst):
		precision = 0
	case worst > 0:
		precision = -math.Log2(worst)
	}
	rep.EndToEnd = map[string]metric{
		"setup_s":        {median(setup), "s"},
		"p50_ms":         {median(latency), "ms"},
		"tail_ms":        {percentile(latency, sp.TailPercentile), "ms"},
		"throughput_rps": {median(throughput), "1/s"},
		"precision_bits": {precision, "bits"},
		"heap_mb":        {median(heap), "MiB"},
	}
	rep.judge()
	return rep, nil
}

// judge sets Correct. Any failed operation fails the run, not only a wrong
// answer: a shed, timed-out or errored request is a response the user did
// not get.
func (r *report) judge() {
	if r.Failed > 0 {
		r.Errors = append(r.Errors, fmt.Sprintf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Outcomes))
	}
	r.Correct = len(r.Errors) == 0
}

// warmPass sends each program of the mix once, untimed, so every batch
// size's machine and plan caches exist before the clock starts.
func (b *bench) warmPass(s *server) {
	if b.spec.sessions() {
		return
	}
	seen := map[string]bool{}
	for _, e := range b.pool {
		if !seen[e.prog] {
			seen[e.prog] = true
			s.do("POST", "/v1/programs/"+e.prog+":run", b.tenants[e.tenant].id, e.body)
		}
	}
}

// tracedPass measures one sub-run on s with spans on, reads the program's
// counters around it, runs the layer probes and fills in the per-layer
// metrics; untracedP50 is the untraced sub-runs' p50_ms.
func (b *bench) tracedPass(s *server, rep *report, untracedP50 float64, times []setupTimes) error {
	tr := newTracer()
	s.wire.enabled.Store(true)
	c0 := s.counters()
	m, verr := b.measure(s, tr)
	c1 := s.counters()
	s.wire.enabled.Store(false)
	rep.count(&m.out)
	if verr != nil {
		rep.Errors = append(rep.Errors, "traced pass: "+verr.Error())
	} else if m.digest != rep.OutputDigest {
		rep.Errors = append(rep.Errors, fmt.Sprintf("traced pass digest %s differs from the untraced %s", m.digest, rep.OutputDigest))
	}

	pl := counterMetrics(c0, c1, float64(m.completed))
	httpSpan := "serve.http"
	if b.spec.sessions() {
		httpSpan = "session.step"
	}
	handler := median(tr.durations(httpSpan))
	pl["serve.http.handler_p50_ms"] = metric{handler, "ms"}
	pl["serve.http.overhead_p50_ms"] = metric{handler - c1.snap.Latency.P50Ms, "ms"}
	pl["session.create_ms"] = metric{median(tr.durations("session.create")), "ms"}
	pl["sessionlog.bytes_per_step"] = metric{ratio(float64(tr.logGrowth), pl["session.steps"].Value), "bytes"}
	pl["trace.overhead_p50_ms"] = metric{median(m.latency) - untracedP50, "ms"}
	stage := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t).Seconds()
		}
		return median(xs)
	}
	pl["setup.registry_s"] = metric{stage(func(t setupTimes) time.Duration { return t.registry }), "s"}
	pl["setup.cluster_s"] = metric{stage(func(t setupTimes) time.Duration { return t.cluster }), "s"}
	pl["setup.keys_s"] = metric{stage(func(t setupTimes) time.Duration { return t.keys }), "s"}
	pl["setup.warmup_s"] = metric{stage(func(t setupTimes) time.Duration { return t.warmup }), "s"}
	var reg []float64
	for _, t := range times {
		for _, d := range t.register {
			reg = append(reg, ms(d))
		}
	}
	pl["keycache.register_ms"] = metric{median(reg), "ms"}

	probes, err := b.probes(s, tr)
	if err != nil {
		return err
	}
	for _, name := range probeNames() {
		unit := "ms"
		if strings.HasSuffix(name, "_us") {
			unit = "us"
		}
		pl[name] = metric{probes[name].P50, unit}
	}
	// A layer the workload should bypass that did work fails the run: the
	// workload no longer measures what workloads.json says it does.
	for _, name := range b.spec.BypassZero {
		if v := pl[name].Value; v != 0 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("bypass prediction broken: %s = %g, want 0", name, v))
		}
	}
	rep.PerLayer, rep.Probes = pl, probes
	rep.SpanFile = filepath.Join(b.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, b.seed))
	return tr.write(rep.SpanFile)
}

// probeNames lists every probe metric; a probe the workload's registry
// cannot host reads 0.
func probeNames() []string {
	names := []string{
		"ring.ntt_us", "ring.intt_us", "ring.modup_us", "ring.moddown_us", "ring.automorphism_us",
		"ckks.keyswitch_us", "ckks.mulrelin_us", "ckks.rotate_us", "ckks.rescale_us",
		"ckks.ct_marshal_us", "ckks.ct_unmarshal_us", "ckks.encode_us",
		"bootstrap.solo_ms", "bootstrap.batch4_ms", "sched.exec_ms." + deepProgram,
		"cluster.keyswitch_us", "keycache.reload_ms", "serve.http.loopback_rtt_ms",
	}
	for _, p := range shallowPrograms {
		names = append(names, "emulator.run_ms."+p+".b1", "emulator.run_ms."+p+".b4",
			"sched.exec_ms."+p, "workloads.reference_ms."+p)
	}
	return names
}

// liveHeap forces collection (twice, so pooled buffers go too) and
// returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func emit(rep *report, workDir string) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(workDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Printf("workload %s  seed %d  host %s (%d cpus, GOMAXPROCS %d, %s, kernel %s)\n",
		rep.Workload, rep.Seed, rep.Host.CPU, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Kernel)
	fmt.Printf("output_digest %s\n", rep.OutputDigest)
	fmt.Printf("failed_frac %.6f ratio (%d of %d; %v)\n", rep.FailedFrac, rep.Failed, rep.Attempted, rep.Outcomes)
	metrics := rep.EndToEnd
	if rep.Trace {
		metrics = rep.PerLayer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, w := range rep.Warnings {
		fmt.Println("warning:", w)
	}
	for _, e := range rep.Errors {
		fmt.Println("error:", e)
	}
	fmt.Printf("report %s\n", line)
	out, err := json.Marshal(result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
