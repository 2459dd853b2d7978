package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The expected quartiles are those of Python's statistics.quantiles(n=4).
func TestIQRShare(t *testing.T) {
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := iqrShare([]float64{10, 12, 11, 13, 9}); !near(got, (12.5-9.5)/11) {
		t.Errorf("iqrShare of five = %v, want %v", got, 3.0/11)
	}
	if got := iqrShare([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("iqrShare of equal values = %v, want 0", got)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower"}
	higher := metricDef{Name: "y", Better: "higher"}
	if got := worsening(lower, 100, 110); !near(got, 0.10) {
		t.Errorf("lower-is-better 100->110 = %v, want 0.10", got)
	}
	if got := worsening(higher, 100, 110); !near(got, -0.10) {
		t.Errorf("higher-is-better 100->110 = %v, want -0.10", got)
	}
}

func TestSlowdownIsTheMedianKernelOverNominal(t *testing.T) {
	nominal := referenceNominal.Seconds()
	m := machine{kernels: []float64{nominal, 9 * nominal, 2 * nominal}}
	if got := m.slowdown(); !near(got, 2) {
		t.Errorf("slowdown = %v, want 2: the median kernel took twice its nominal time", got)
	}
}
