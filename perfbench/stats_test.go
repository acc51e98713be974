package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so percentile must sort
	}
	return out
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true}, // 10 samples beyond p90
		{99, 0.9, false}, // 9 beyond
		{100, 0.99, false},
		{1000, 0.99, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %g): err %v, want ok=%v", c.n, c.p, err, c.ok)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	got, err := percentile(seq(100), 0.9)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %g, %v; want 90", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
}
