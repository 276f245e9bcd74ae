package main

import (
	"math"
	"testing"
)

func TestQuantileKnownSample(t *testing.T) {
	// Linear interpolation between closest ranks (NumPy's default):
	// positions q*(n-1) over the sorted sample 15 20 35 40 50.
	sample := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ q, want float64 }{
		{0, 15}, {0.25, 20}, {0.5, 35}, {0.75, 40}, {0.9, 46}, {0.99, 49.6}, {1, 50},
	} {
		if got := quantile(append([]float64(nil), sample...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSamplerKeepsEvenlySpacedBoundedSample(t *testing.T) {
	s := newSampler(1000)
	for i := 0; i < 100000; i++ {
		s.add(float64(i))
	}
	v := s.values()
	if len(v) > 1000 || len(v) < 500 {
		t.Fatalf("kept %d values, want 500..1000", len(v))
	}
	for i := 1; i < len(v); i++ {
		if d := v[i] - v[i-1]; d != float64(s.stride) {
			t.Fatalf("values %v and %v are %v apart, want the stride %d", v[i-1], v[i], d, s.stride)
		}
	}
	if m := median(v); math.Abs(m-50000) > 500 {
		t.Errorf("median of the kept sample = %v, want about 50000", m)
	}
	if cap(s.buf) != 1000 {
		t.Errorf("sampler grew to capacity %d", cap(s.buf))
	}
}
