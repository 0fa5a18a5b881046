package main

import "testing"

func TestQuietMedian(t *testing.T) {
	for _, c := range []struct {
		vals, steal []float64
		want        float64
	}{
		// Disturbed samples are left out.
		{[]float64{1, 2, 3, 10, 11}, []float64{0, 0.01, 0, 0.1, 0.2}, 2},
		// All quiet: the plain median.
		{[]float64{4, 1, 3, 2}, []float64{0, 0, 0, 0}, 2.5},
		// Fewer than half quiet: the least disturbed half.
		{[]float64{1, 5, 9, 20}, []float64{0.01, 0.05, 0.06, 0.3}, 3},
	} {
		if got := quietMedian(c.vals, c.steal); got != c.want {
			t.Errorf("quietMedian(%v, %v) = %v, want %v", c.vals, c.steal, got, c.want)
		}
	}
}

func TestStolenShare(t *testing.T) {
	if got := stolen(stealMark{steal: 10, total: 100}, stealMark{steal: 15, total: 200}); got != 0.05 {
		t.Errorf("stolen = %v, want 0.05", got)
	}
	if got := stolen(stealMark{steal: 1, total: 100}, stealMark{steal: 1, total: 100}); got != 0 {
		t.Errorf("stolen over no ticks = %v, want 0", got)
	}
}
