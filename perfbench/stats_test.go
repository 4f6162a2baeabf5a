package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestNearestRankPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 99, 99, 1},
		{1000, 99, 990, 10},
		{999, 99, 990, 9}, // rank ceil(989.01) = 990
		{10, 99, 10, 0},
		{3, 50, 2, 1},
		{1, 99, 1, 0},
	} {
		got, beyond := percentile(seq(c.n), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v of 1..%d = %v with %d beyond, want %v with %d", c.p, c.n, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty sample gave %v, %d", v, b)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{1200, 99, true},
		{100, 90, true},
		{99, 90, false},
		{10, 50, false},
		{0, 50, false},
	} {
		if got := tailReportable(c.n, c.p); got != c.want {
			t.Errorf("tailReportable(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// setup_s is the median of several set-ups, so one slow set-up (a GC, a
// descheduled vCPU) does not move it.
func TestSetupIsMedianOfRepeats(t *testing.T) {
	setups := []float64{0.020, 0.021, 0.019, 5.0, 0.020, 0.022, 0.018}
	if got := median(setups); got != 0.020 {
		t.Errorf("median = %v, want 0.020", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if math.Abs(mean(setups)-0.7314) > 1e-3 {
		t.Errorf("mean = %v", mean(setups))
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 of 100.
	if self["parent"] != 50 || self["a"] != 20 || self["b"] != 30 || self["c"] != 30 {
		t.Errorf("self times %v", self)
	}
}

func TestTailShare(t *testing.T) {
	maxNS, share := tailShare(seq(200)) // slowest 1% = the two largest
	if maxNS != 200 || math.Abs(share-(200+199)/20100.0) > 1e-12 {
		t.Errorf("tailShare = %v, %v", maxNS, share)
	}
}
