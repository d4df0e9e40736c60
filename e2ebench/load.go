package main

import (
	"sync"
	"time"
)

// sample is one operation as the load generator saw it. Times are offsets
// from the start of its phase.
type sample struct {
	trace int64         // trace id: the request index, or the session index
	sent  time.Duration // when the caller sent it
	done  time.Duration // when the response was back
	ok    bool          // 2xx, and bit-identical to the entry's canonical response
}

// latency runs from the send, so time a request spends queued behind a
// stalled one inside the server counts against it.
func (s sample) latency() time.Duration { return s.done - s.sent }

// phaseClock is what closed-loop callers see of their phase: the time
// since it started, and whether its measuring window has passed.
type phaseClock struct {
	start time.Time
	dur   time.Duration
}

func (c phaseClock) now() time.Duration { return time.Since(c.start) }
func (c phaseClock) expired() bool      { return time.Since(c.start) >= c.dur }

// closedLoop runs callers goroutines, each calling op back to back until
// the window has passed; an op already started runs to completion. op
// returns the samples it produced (one per request, or one per step of a
// session).
func closedLoop(start time.Time, callers int, dur time.Duration, op func(clk phaseClock) []sample) []sample {
	clk := phaseClock{start: start, dur: dur}
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !clk.expired() {
				per[c] = append(per[c], op(clk)...)
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// inWindow keeps the samples sent inside [0, dur]. A session that was
// running when the window closed finishes its steps, but the steps it sends
// afterwards run with fewer callers in flight and are not measured.
func inWindow(samples []sample, dur time.Duration) []sample {
	var out []sample
	for _, s := range samples {
		if s.sent < dur {
			out = append(out, s)
		}
	}
	return out
}

// windowCompletions counts the successful operations completed inside
// [0, dur]. An operation that straddles the end counts for the share of
// its service time that fell inside, so the count does not jump by whole
// operations when the window cuts a slow one.
func windowCompletions(samples []sample, dur time.Duration) float64 {
	n := 0.0
	for _, s := range samples {
		switch {
		case !s.ok || s.sent >= dur:
		case s.done <= dur:
			n++
		default:
			n += float64(dur-s.sent) / float64(s.done-s.sent)
		}
	}
	return n
}
