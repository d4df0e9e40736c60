package main

import (
	"math"
	"sort"
)

// tailLadderPermille lists the percentiles, in per-mille, that tail_ms may
// report; it tops out at p99, the serving tail the repository gates on.
// Per-mille integers keep the "ten samples beyond" test exact.
var tailLadderPermille = []int{500, 750, 900, 950, 980, 990}

// tailPercentile applies the tail rule: the highest ladder percentile with
// at least ten of n samples beyond it. It returns 0 when n < 20, where not
// even the median has ten samples above it.
func tailPercentile(n int) float64 {
	best := 0
	for _, pm := range tailLadderPermille {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// supportsTail reports whether n samples put at least ten beyond the
// percentile p (in percent).
func supportsTail(n int, p float64) bool {
	pm := int(math.Round(p * 10))
	return n*(1000-pm) >= 10*1000
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles is the median with its first and third quartiles.
type quartiles struct {
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func quartilesOf(xs []float64) quartiles {
	if len(xs) == 0 {
		return quartiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quartiles{P25: sortedPercentile(s, 25), P50: sortedPercentile(s, 50), P75: sortedPercentile(s, 75)}
}

func median(xs []float64) float64 { return percentile(xs, 50) }
