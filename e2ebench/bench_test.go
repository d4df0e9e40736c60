package main

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90},
		{499, 95}, {500, 98}, {999, 98}, {1000, 99}, {100000, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && !supportsTail(c.n, c.want) {
			t.Errorf("supportsTail(%d, %g) = false for the rule's own choice", c.n, c.want)
		}
	}
	if supportsTail(999, 99) {
		t.Error("999 samples put only 9.99 beyond p99, yet supportsTail says yes")
	}
}

func TestWindowCompletionsCreditsStraddlingShare(t *testing.T) {
	ms := time.Millisecond
	got := windowCompletions([]sample{
		{sent: 0, done: 10 * ms, ok: true},
		{sent: 90 * ms, done: 110 * ms, ok: true}, // half inside a 100ms window
		{sent: 20 * ms, done: 30 * ms, ok: false},
		{sent: 100 * ms, done: 120 * ms, ok: true},
	}, 100*ms)
	if got != 1.5 {
		t.Fatalf("windowCompletions = %g, want 1.5", got)
	}
}

// testBench builds a small catalog-mix client: real keys and ciphertexts,
// four pool entries.
func testBench(t *testing.T) *bench {
	t.Helper()
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	sp := *specs["catalog-mix"]
	sp.Pool = 4
	b, err := newBench("catalog-mix", &sp, 3, 1, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encryptWant returns a well-formed response for entry e whose slots are
// its expected output plus delta.
func encryptWant(t *testing.T, b *bench, e *entry, delta complex128) []byte {
	t.Helper()
	v := append([]complex128(nil), e.want[0]...)
	for i := range v {
		v[i] += delta
	}
	pt, err := b.enc.Encode(v, b.params.MaxLevel(), b.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := b.tenants[e.tenant].encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptingServer answers request i with good[i mod len], except that
// corrupt may replace the body.
func corruptingServer(good [][]byte, corrupt func(i int, body []byte) []byte) *server {
	var mu sync.Mutex
	served := 0
	return &server{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := served
		served++
		mu.Unlock()
		w.Write(corrupt(i, good[i%len(good)]))
	})}
}

// flipLast returns body with its last byte flipped.
func flipLast(body []byte) []byte {
	body = append([]byte(nil), body...)
	body[len(body)-1] ^= 1
	return body
}

// sendAndJudge fires n requests one after another and judges them as a
// run's single sub-run.
func sendAndJudge(b *bench, s *server, n int) (*report, *measurement) {
	m := &measurement{canon: newCanonStore(len(b.pool))}
	clk := phaseClock{start: time.Now()}
	for i := 0; i < n; i++ {
		b.fire(s, m, clk, i, nil)
	}
	rep := &report{}
	if err := b.finish(m); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	}
	rep.count(&m.out)
	rep.judge()
	return rep, m
}

func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	b := testBench(t)
	good := make([][]byte, len(b.pool))
	for i, e := range b.pool {
		good[i] = encryptWant(t, b, e, 0)
	}
	// Entry 1's canonical (first) answer decrypts to the wrong values;
	// request 6 is entry 2's answer with one byte flipped in transit.
	wrongCanon := encryptWant(t, b, b.pool[1], 0.5)
	s := corruptingServer(good, func(i int, body []byte) []byte {
		switch {
		case i%len(good) == 1:
			return wrongCanon
		case i == 6:
			return flipLast(body)
		}
		return body
	})
	const n = 8
	rep, _ := sendAndJudge(b, s, n)
	if errs := strings.Join(rep.Errors, "\n"); !strings.Contains(errs, "slot error") {
		t.Fatalf("errors %q, want a slot-error verification failure", errs)
	}
	// Requests 1 and 5 matched the wrong canonical answer; request 6 was
	// corrupted.
	if rep.Attempted != n || rep.Failed != 3 || rep.FailedFrac != 3.0/n || rep.Correct {
		t.Fatalf("attempted %d failed %d failed_frac %g correct %v, want %d, 3, %g, false",
			rep.Attempted, rep.Failed, rep.FailedFrac, rep.Correct, n, 3.0/n)
	}
}

// A response that differs from its entry's first one fails the run even
// when every canonical response decrypts correctly.
func TestCorruptedLaterResponseFailsRun(t *testing.T) {
	b := testBench(t)
	good := make([][]byte, len(b.pool))
	for i, e := range b.pool {
		good[i] = encryptWant(t, b, e, 0)
	}
	const n = 8
	clean, _ := sendAndJudge(b, corruptingServer(good, func(_ int, body []byte) []byte { return body }), n)
	if !clean.Correct || clean.Failed != 0 {
		t.Fatalf("clean run: correct %v failed %d errors %q", clean.Correct, clean.Failed, clean.Errors)
	}
	rep, m := sendAndJudge(b, corruptingServer(good, func(i int, body []byte) []byte {
		if i == 6 { // a repeat of entry 2, whose first answer was request 2
			return flipLast(body)
		}
		return body
	}), n)
	if rep.Correct || rep.Failed != 1 || m.worstErr > b.pool[0].tol {
		t.Fatalf("correct %v failed %d worst error %g, want false, 1 and the canonical answers within tolerance",
			rep.Correct, rep.Failed, m.worstErr)
	}
	if errs := strings.Join(rep.Errors, "\n"); !strings.Contains(errs, "pool entry 2 step 1: a response differs from the first one") {
		t.Fatalf("errors %q do not name the differing response", errs)
	}
}

// In the closed loop, latency runs from the send: requests that reach the
// server while it is stalled on another one are charged the time they wait.
func TestClosedLoopChargesStallToQueuedRequests(t *testing.T) {
	b := testBench(t)
	good := make([][]byte, len(b.pool))
	for i, e := range b.pool {
		good[i] = encryptWant(t, b, e, 0)
	}
	const stall = 100 * time.Millisecond
	inner := corruptingServer(good, func(i int, body []byte) []byte {
		if i == 4 {
			time.Sleep(stall)
		}
		return body
	})
	// One server thread: requests queue behind each other. The server keeps
	// its own account of the time requests spent inside it, queueing
	// included.
	var busy sync.Mutex
	var inServer, queued time.Duration
	s := &server{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived := time.Now()
		busy.Lock()
		defer busy.Unlock()
		queued += time.Since(arrived)
		inner.h.ServeHTTP(w, r)
		inServer += time.Since(arrived)
	})}
	m := &measurement{canon: newCanonStore(len(b.pool))}
	var next atomic.Int64
	samples := closedLoop(time.Now(), 4, 2*stall, func(clk phaseClock) []sample {
		return []sample{b.fire(s, m, clk, int(next.Add(1)-1), nil)}
	})
	if queued < stall {
		t.Fatalf("requests queued %v in all behind a %v stall; the test needs them to queue", queued, stall)
	}
	var charged time.Duration
	for _, smp := range samples {
		charged += smp.latency()
	}
	if charged < inServer {
		t.Fatalf("latencies add up to %v, less than the %v the server held the requests", charged, inServer)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	h := host{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Kernel: "6.1"}
	mk := func(h host, v float64) report {
		return report{Workload: "catalog-mix", Host: h, EndToEnd: map[string]metric{"p50_ms": {v, "ms"}}}
	}
	out, err := compareReports([]report{mk(h, 10)}, []report{mk(h, 11)})
	if err != nil || !strings.Contains(out, "p50_ms") || !strings.Contains(out, "+10.0%") {
		t.Fatalf("same host: err %v, table:\n%s", err, out)
	}
	other := h
	other.NProc = 4
	out, err = compareReports([]report{mk(h, 10)}, []report{mk(other, 11)})
	if err == nil || out != "" {
		t.Fatalf("different hosts: want a refusal and no table, got err %v, table %q", err, out)
	}
}
