package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the samples
// at or below it. It never interpolates, so a reported percentile is
// always a latency some request really had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// beyond reports how many of n samples lie strictly above the
// nearest-rank p-quantile: the evidence a tail percentile rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// median returns the middle value of vs (mean of the middle two for an
// even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quiet returns the mean of the better half of vs: of the lower half
// when lower is better, of the upper half when higher is (the middle
// observation included when the count is odd). On a shared box
// interference only ever makes a window slower, never faster, so the
// quiet half keeps its value while up to half of the windows are
// disturbed, and a real regression, which moves every window, moves it
// too. Against the median window — which resists the same share of
// disturbed windows — it averages several windows instead of picking
// one, which over ten-seed sets on this box gave the smaller run-to-run
// spread (README, "The quiet half").
func quiet(vs []float64, higherIsBetter bool) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	k := (len(s) + 1) / 2
	half := s[:k]
	if higherIsBetter {
		half = s[len(s)-k:]
	}
	sum := 0.0
	for _, v := range half {
		sum += v
	}
	return sum / float64(k)
}

// iqr returns the distance between the first and third quartile of vs,
// by the same exclusive method as Python's statistics.quantiles(n=4),
// which is what the acceptance rule for a benchmark spread uses.
func iqr(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// windowOf maps an offset into [0, span) onto one of n equal windows,
// or -1 when the offset lies outside the span.
func windowOf(offset, span int64, n int) int {
	if offset < 0 || offset >= span || n <= 0 {
		return -1
	}
	w := int(offset * int64(n) / span)
	if w >= n {
		w = n - 1
	}
	return w
}

// sortedCopy returns vs sorted ascending without modifying vs.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
