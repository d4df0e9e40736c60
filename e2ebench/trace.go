package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request (or
// one session, or one probe run) share a trace id; a root span has
// parent 0.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	epoch time.Time

	mu         sync.Mutex
	spans      []span
	nextProbe  int64
	logLast    int64
	logGrowth  int64
	logSamples int
}

// probeTraceBase keeps probe trace ids clear of request indices.
const probeTraceBase = 1 << 40

func newTracer() *tracer { return &tracer{epoch: time.Now(), nextProbe: probeTraceBase} }

// spanID numbers the spans of a trace: index 0 is the root.
func spanID(trace, idx int64) int64 { return (trace+1)<<8 | idx }

func (t *tracer) add(trace, id, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// span records child idx of the trace's root span.
func (t *tracer) span(trace, idx int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(trace, spanID(trace, idx), spanID(trace, 0), name, start, end)
}

// requestSpans records the root span of every one-shot request, from its
// send to its response.
func (t *tracer) requestSpans(start time.Time, samples []sample) {
	if t == nil {
		return
	}
	for _, s := range samples {
		t.add(s.trace, spanID(s.trace, 0), 0, "loadgen.request", start.Add(s.sent), start.Add(s.done))
	}
}

// sessionSpan records a session's root span, from create to close.
func (t *tracer) sessionSpan(trace int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(trace, spanID(trace, 0), 0, "loadgen.session", start, end)
}

// probeSpan records one probe run as its own trace.
func (t *tracer) probeSpan(name string, start, end time.Time) {
	t.mu.Lock()
	trace := t.nextProbe
	t.nextProbe++
	t.mu.Unlock()
	t.add(trace, spanID(trace, 0), 0, "probe."+name, start, end)
}

// logSize samples the session log's size after a step; growth sums the
// increases, so a compaction that shrinks the file is not subtracted.
func (t *tracer) logSize(path string) {
	if t == nil || path == "" {
		return
	}
	fi, err := os.Stat(path)
	if err != nil {
		return
	}
	t.mu.Lock()
	if d := fi.Size() - t.logLast; d > 0 && t.logSamples > 0 {
		t.logGrowth += d
	}
	t.logLast = fi.Size()
	t.logSamples++
	t.mu.Unlock()
}

// durations returns the lengths, in ms, of every span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}
