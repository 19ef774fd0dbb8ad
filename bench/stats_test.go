package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {0.01, 1}, {0.91, 10}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	// A percentile is always a value that occurred.
	if got := percentile([]float64{1, 100}, 0.5); got != 1 {
		t.Errorf("percentile interpolated: got %v", got)
	}
}

func TestBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{10000, 0.99, 100}, {4000, 0.99, 40}, {99, 0.99, 0}, {1000, 0.999, 1}, {0, 0.99, 0}} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestQuietHalf(t *testing.T) {
	// Eight windows of a latency: the quiet half is the mean of the best
	// four, and it does not move while at most half are disturbed.
	calm := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 1.00, 1.01}
	busy := []float64{1.00, 9.50, 0.98, 7.20, 0.99, 8.80, 1.00, 6.30} // four of eight disturbed
	want := (0.98 + 0.99 + 1.00 + 1.00) / 4
	if got := quiet(calm, false); math.Abs(got-want) > 1e-12 {
		t.Errorf("quiet half of calm windows = %v, want %v", got, want)
	}
	if got := quiet(busy, false); math.Abs(got-want) > 1e-12 {
		t.Errorf("quiet half of disturbed windows = %v, want %v", got, want)
	}
	// A regression moves every window, and so the quiet half.
	slow := make([]float64, len(calm))
	for i, v := range calm {
		slow[i] = v * 1.2
	}
	if got := quiet(slow, false); math.Abs(got-want*1.2) > 1e-12 {
		t.Errorf("quiet half of a 20%% regression = %v, want %v", got, want*1.2)
	}
	// Higher is better: the half is taken from the top.
	rates := []float64{2000, 2010, 1200, 1990, 800, 2005, 1500, 1995}
	if got := quiet(rates, true); got != (2010+2005+2000+1995)/4.0 {
		t.Errorf("quiet half of throughput windows = %v", got)
	}
	// An odd count includes the middle observation; one observation is itself.
	if got := quiet([]float64{3, 1, 2}, false); got != 1.5 {
		t.Errorf("quiet half of three = %v, want 1.5", got)
	}
	if got := quiet([]float64{3, 1, 2}, true); got != 2.5 {
		t.Errorf("quiet upper half of three = %v, want 2.5", got)
	}
	if quiet([]float64{7}, false) != 7 || quiet([]float64{7}, true) != 7 {
		t.Errorf("quiet half of one observation")
	}
	if !math.IsNaN(quiet(nil, false)) {
		t.Errorf("quiet half of nothing should be NaN")
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr(1..10) = %v, want 5.5", got)
	}
	// statistics.quantiles([10, 12, 11, 15, 30], n=4) == [10.5, 12.0, 22.5]
	if got := iqr([]float64{10, 12, 11, 15, 30}); math.Abs(got-12) > 1e-12 {
		t.Errorf("iqr = %v, want 12", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := iqr([]float64{1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("iqr([1,2]) = %v, want 1.5", got)
	}
}

func TestWindowOf(t *testing.T) {
	span := int64(10_000)
	for _, tc := range []struct {
		off  int64
		want int
	}{{0, 0}, {1999, 0}, {2000, 1}, {9999, 4}, {10000, -1}, {-1, -1}} {
		if got := windowOf(tc.off, span, 5); got != tc.want {
			t.Errorf("windowOf(%d) = %d, want %d", tc.off, got, tc.want)
		}
	}
}
