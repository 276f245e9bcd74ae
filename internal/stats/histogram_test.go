package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 100} {
		h.Add(x)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Errorf("under/over = %d/%d, want 1/2", under, over)
	}
	bins := h.Bins()
	if bins[0] != 2 { // 0 and 0.5
		t.Errorf("bin0 = %d, want 2", bins[0])
	}
	if bins[5] != 1 || bins[9] != 1 {
		t.Errorf("bins = %v", bins)
	}
}

func TestHistogramTopEdgeRounding(t *testing.T) {
	// A value just below hi must land in the last bin even if float
	// division rounds up.
	h := NewHistogram(0, 0.3, 3)
	h.Add(0.3 - 1e-17)
	bins := h.Bins()
	var total uint64
	for _, b := range bins {
		total += b
	}
	_, over := h.OutOfRange()
	if total+over != 1 {
		t.Errorf("observation lost: bins=%v over=%d", bins, over)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%100) + 0.5)
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		got := h.Quantile(p)
		want := p * 100
		if got < want-2 || got > want+2 {
			t.Errorf("quantile(%v) = %v, want ~%v", p, got, want)
		}
	}
	empty := NewHistogram(0, 1, 4)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

func TestHistogramMeanAndReset(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(2)
	h.Add(4)
	if !almostEqual(h.Mean(), 3, 1e-12) {
		t.Errorf("mean = %v", h.Mean())
	}
	h.Reset()
	if h.Count() != 0 || !math.IsNaN(h.Mean()) {
		t.Error("reset failed")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 1, 3} {
		a.Add(x)
	}
	for _, x := range []float64{5, 7, 20} {
		b.Add(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 6 {
		t.Errorf("merged count = %d, want 6", a.Count())
	}
	under, over := a.OutOfRange()
	if under != 1 || over != 1 {
		t.Errorf("merged under/over = %d/%d, want 1/1", under, over)
	}
	if !almostEqual(a.Mean(), 35.0/6, 1e-12) {
		t.Errorf("merged mean = %v", a.Mean())
	}
	if b.Count() != 3 {
		t.Error("merge mutated its argument")
	}
}

func TestHistogramMergeShapeMismatch(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	for _, b := range []*Histogram{
		NewHistogram(0, 10, 4),
		NewHistogram(0, 20, 5),
		NewHistogram(1, 10, 5),
	} {
		if err := a.Merge(b); err == nil {
			t.Errorf("merging %v into %v should error", b, a)
		}
	}
	if a.Count() != 0 {
		t.Error("failed merge must not modify the receiver")
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%100) + 0.5)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Errorf("summary count = %d", s.Count)
	}
	if s.P50 < 45 || s.P50 > 55 || s.P99 < 95 || s.P99 > 100 {
		t.Errorf("summary quantiles = %+v", s)
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("quantiles not monotone: %+v", s)
	}
	var zero Summary
	if NewHistogram(0, 1, 4).Summary() != zero {
		t.Error("empty histogram must summarize to the zero Summary")
	}
	if NewLogHistogram(10).Summary() != zero {
		t.Error("empty log histogram must summarize to the zero Summary")
	}
}

func TestHistogramProbabilitiesSumToOne(t *testing.T) {
	h := NewHistogram(0, 1, 8)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		h.Add(rng.Float64())
	}
	for _, eps := range []float64{0, 0.5} {
		p := h.Probabilities(eps)
		var sum float64
		for _, v := range p {
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("eps=%v: probabilities sum to %v", eps, sum)
		}
	}
	// Empty histogram: uniform.
	e := NewHistogram(0, 1, 4)
	p := e.Probabilities(0)
	for _, v := range p {
		if !almostEqual(v, 0.25, 1e-12) {
			t.Errorf("empty hist probabilities = %v", p)
		}
	}
}

func TestPSIDetectsShift(t *testing.T) {
	ref := NewHistogram(0, 100, 20)
	same := NewHistogram(0, 100, 20)
	shifted := NewHistogram(0, 100, 20)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		ref.Add(rng.NormFloat64()*10 + 30)
		same.Add(rng.NormFloat64()*10 + 30)
		shifted.Add(rng.NormFloat64()*10 + 70)
	}
	if psi := ref.PSI(same); psi > 0.05 {
		t.Errorf("same-distribution PSI = %v, want < 0.05", psi)
	}
	if psi := ref.PSI(shifted); psi < 0.25 {
		t.Errorf("shifted PSI = %v, want > 0.25", psi)
	}
}

func TestPSIShapeMismatchPanics(t *testing.T) {
	a := NewHistogram(0, 1, 4)
	b := NewHistogram(0, 1, 5)
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	a.PSI(b)
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		n      int
	}{{0, 1, 0}, {1, 1, 4}, {2, 1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%d) should panic", c.lo, c.hi, c.n)
				}
			}()
			NewHistogram(c.lo, c.hi, c.n)
		}()
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(20)
	for _, x := range []float64{0.5, 1, 3, 1000, 1 << 25} {
		h.Add(x)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	// 0.5 in zero bucket; 1 in [1,2); 3 in [2,4); 1000 in [512,1024);
	// 1<<25 clamps to top bin.
	if h.zero != 1 || h.bins[0] != 1 || h.bins[1] != 1 || h.bins[9] != 1 || h.bins[19] != 1 {
		t.Errorf("buckets: zero=%d bins=%v", h.zero, h.bins)
	}
}

func TestLogHistogramQuantile(t *testing.T) {
	h := NewLogHistogram(30)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		h.Add(rng.ExpFloat64() * 100)
	}
	p50 := h.Quantile(0.5)
	// Exponential(mean 100) median is ~69.3. Log buckets are coarse;
	// accept the containing power-of-two range.
	if p50 < 32 || p50 > 160 {
		t.Errorf("p50 = %v, want within [32,160]", p50)
	}
	if h.Quantile(0.99) <= p50 {
		t.Error("p99 should exceed p50")
	}
	h.Reset()
	if h.Count() != 0 || !math.IsNaN(h.Quantile(0.5)) {
		t.Error("reset failed")
	}
}

func TestLogHistogramMerge(t *testing.T) {
	a := NewLogHistogram(20)
	b := NewLogHistogram(20)
	a.Add(0.5)
	a.Add(100)
	b.Add(200)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 {
		t.Errorf("merged count = %d, want 3", a.Count())
	}
	if !almostEqual(a.Mean(), 300.5/3, 1e-12) {
		t.Errorf("merged mean = %v", a.Mean())
	}
	if err := a.Merge(NewLogHistogram(10)); err == nil {
		t.Error("maxExp mismatch should error")
	}
}

func TestLogHistogramMaxExpPanics(t *testing.T) {
	for _, n := range []int{0, -1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("maxExp=%d should panic", n)
				}
			}()
			NewLogHistogram(n)
		}()
	}
}

// floorLog2 is floor(log2 x) for finite x >= 1, read exactly from the
// float's exponent: the bucket the log2 histogram must pick.
func floorLog2(x float64) int {
	_, exp := math.Frexp(x)
	return exp - 1
}

// logBucket adds x to a fresh maxExp histogram and returns the bin it
// landed in, or -1 for the sub-1 bucket.
func logBucket(t *testing.T, maxExp int, x float64) int {
	t.Helper()
	h := NewLogHistogram(maxExp)
	h.Add(x)
	if h.zero == 1 {
		return -1
	}
	for i, c := range h.bins {
		if c == 1 {
			return i
		}
	}
	t.Fatalf("Add(%v) landed in no bucket", x)
	return 0
}

// TestLogHistogramBucketBoundaries: every finite x in [1, 2^maxExp)
// lands in bin floor(log2 x) — at each power of two, one ulp and a
// relative 1e-9 either side of it, and across a seeded log-uniform
// sweep — and every x at or past 2^maxExp lands in the top bin.
func TestLogHistogramBucketBoundaries(t *testing.T) {
	const maxExp = 40
	for i := 0; i < maxExp; i++ {
		p := math.Exp2(float64(i))
		for _, x := range []float64{
			p,
			math.Nextafter(p, math.Inf(1)), p * (1 + 1e-9),
			math.Nextafter(p, 0), p * (1 - 1e-9),
		} {
			want := -1
			if x >= 1 {
				want = floorLog2(x)
			}
			if got := logBucket(t, maxExp, x); got != want {
				t.Errorf("Add(%v) (2^%d neighbourhood) landed in bin %d, want %d", x, i, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 20000; n++ {
		x := math.Exp2(rng.Float64() * maxExp)
		if got, want := logBucket(t, maxExp, x), floorLog2(x); x >= 1 && got != want {
			t.Fatalf("Add(%v) landed in bin %d, want %d", x, got, want)
		}
	}
	for _, x := range []float64{math.Exp2(maxExp), math.Exp2(maxExp) + 1, 1e300, math.MaxFloat64, math.Inf(1)} {
		if got := logBucket(t, maxExp, x); got != maxExp-1 {
			t.Errorf("Add(%v) landed in bin %d, want the top bin %d", x, got, maxExp-1)
		}
	}
}

// TestLogHistogramNonFinite is the regression test for Add panicking
// with an index of MinInt64 on +Inf and NaN: +Inf counts in the top bin
// and enters the sum as 2^maxExp, so the summary stays finite and
// JSON-marshalable; NaN is not an observation and changes nothing.
func TestLogHistogramNonFinite(t *testing.T) {
	h := NewLogHistogram(20)
	h.Add(3)
	h.Add(math.Inf(1))
	h.Add(math.NaN())
	zero, bins, total, sum := h.Buckets()
	if total != 2 || zero != 0 || bins[1] != 1 || bins[19] != 1 {
		t.Errorf("buckets: zero=%d bins=%v total=%d, want 3 in bin 1 and +Inf in bin 19", zero, bins, total)
	}
	if want := 3 + math.Exp2(20); sum != want {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	if _, err := json.Marshal(h.Summary()); err != nil {
		t.Errorf("summary with +Inf observed is not JSON-marshalable: %v", err)
	}
	h.Reset()
	h.Add(math.NaN())
	if h.Count() != 0 || h.Summary() != (Summary{}) {
		t.Errorf("NaN was counted: count=%d summary=%+v", h.Count(), h.Summary())
	}
}
