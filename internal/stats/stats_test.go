package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"resilience/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance(nil) != 0 {
		t.Error("Variance(nil) != 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty should be +/-Inf")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
	if s := Summarize(nil); s.N != 0 {
		t.Error("Summarize(nil).N != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotone(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if err := quick.Check(func(a, b float64) bool {
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
}

func TestAutocorrelationPerfect(t *testing.T) {
	// A constant-increment alternating series has lag-1 autocorr near -1.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	ac, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ac > -0.9 {
		t.Fatalf("alternating series lag-1 autocorr = %v, want ~-1", ac)
	}
}

func TestAutocorrelationWhiteNoise(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Norm(0, 1)
	}
	ac, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ac) > 0.05 {
		t.Fatalf("white-noise lag-1 autocorr = %v, want ~0", ac)
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with phi=0.8 should measure autocorr near 0.8.
	r := rng.New(3)
	xs := make([]float64, 20000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.8*xs[i-1] + r.Norm(0, 1)
	}
	ac, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ac, 0.8, 0.03) {
		t.Fatalf("AR(1) autocorr = %v, want ~0.8", ac)
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation([]float64{1, 2}, 5); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData for lag beyond data")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, -1); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData for negative lag")
	}
	// Constant series: zero denominator handled as zero correlation.
	ac, err := Autocorrelation([]float64{5, 5, 5, 5}, 1)
	if err != nil || ac != 0 {
		t.Errorf("constant series: ac=%v err=%v", ac, err)
	}
}

func TestKendallTau(t *testing.T) {
	inc := []float64{1, 2, 3, 4, 5}
	tau, err := KendallTau(inc)
	if err != nil || tau != 1 {
		t.Fatalf("increasing tau = %v err=%v, want 1", tau, err)
	}
	dec := []float64{5, 4, 3, 2, 1}
	tau, err = KendallTau(dec)
	if err != nil || tau != -1 {
		t.Fatalf("decreasing tau = %v, want -1", tau)
	}
	if _, err := KendallTau([]float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData for single point")
	}
}

func TestKendallTauRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = r.Float64()
		}
		tau, err := KendallTau(xs)
		return err == nil && tau >= -1 && tau <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData for mismatched lengths")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for degenerate x")
	}
}

func TestHillEstimatorRecovers(t *testing.T) {
	r := rng.New(4)
	const n = 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Pareto(1, 2.5)
	}
	alpha, err := HillEstimator(xs, n/10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(alpha, 2.5, 0.15) {
		t.Fatalf("Hill alpha = %v, want ~2.5", alpha)
	}
}

func TestHillEstimatorErrors(t *testing.T) {
	if _, err := HillEstimator([]float64{1, 2}, 5); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData")
	}
	if _, err := HillEstimator([]float64{-1, -2, -3, 4}, 3); err == nil {
		t.Error("want error for non-positive tail")
	}
}

func TestFitPowerLawCCDF(t *testing.T) {
	r := rng.New(5)
	const n = 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Pareto(1, 1.8)
	}
	alpha, r2, err := FitPowerLawCCDF(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(alpha, 1.8, 0.2) {
		t.Fatalf("CCDF alpha = %v, want ~1.8", alpha)
	}
	if r2 < 0.98 {
		t.Fatalf("CCDF fit R2 = %v, want near 1", r2)
	}
}

func TestFitPowerLawCCDFInsufficient(t *testing.T) {
	if _, _, err := FitPowerLawCCDF([]float64{1, 2, 3}, 1); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	under, over := h.Outliers()
	if under != 1 || over != 2 {
		t.Fatalf("outliers = %d,%d", under, over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Fatalf("bin1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.99
		t.Fatalf("bin4 = %d, want 1", h.Counts[4])
	}
}

func TestHistogramInvalid(t *testing.T) {
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("want error for hi <= lo")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("want error for zero bins")
	}
}

func TestLogHistogram(t *testing.T) {
	h, err := NewLogHistogram(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 3, 4, 7.9, 8, 0, -5} {
		h.Add(x)
	}
	exps, lows, counts := h.Buckets()
	// Buckets: 1 -> [1,2), 2,3 -> [2,4), 4,7.9 -> [4,8), 8 -> [8,16).
	if len(exps) != 4 {
		t.Fatalf("buckets = %v %v %v", exps, lows, counts)
	}
	wantCounts := []int{1, 2, 2, 1}
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", counts, wantCounts)
		}
	}
	if h.Total() != 8 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestLogHistogramInvalidBase(t *testing.T) {
	if _, err := NewLogHistogram(1); err == nil {
		t.Error("want error for base <= 1")
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		xs := make([]float64, int(nRaw)%50)
		for i := range xs {
			xs[i] = r.Norm(0, 10)
		}
		return Variance(xs) >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAutocorrelation(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Autocorrelation(xs, 1)
	}
}

func TestBootstrapCIBasics(t *testing.T) {
	r := rng.New(20)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Norm(10, 2)
	}
	lo, hi, err := BootstrapCI(xs, 0.95, 2000, r.Intn)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Fatalf("interval inverted: [%v, %v]", lo, hi)
	}
	m := Mean(xs)
	if m < lo || m > hi {
		t.Fatalf("sample mean %v outside its own bootstrap CI [%v, %v]", m, lo, hi)
	}
	// The CI should be roughly mean ± 2*sd/sqrt(n) ≈ ±0.28.
	if hi-lo > 1.2 || hi-lo < 0.2 {
		t.Fatalf("CI width %v implausible", hi-lo)
	}
}

func TestBootstrapCIShrinksWithN(t *testing.T) {
	r := rng.New(21)
	width := func(n int) float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(0, 1)
		}
		lo, hi, err := BootstrapCI(xs, 0.95, 1000, r.Intn)
		if err != nil {
			t.Fatal(err)
		}
		return hi - lo
	}
	small := width(30)
	large := width(3000)
	if large >= small {
		t.Fatalf("CI width should shrink with n: %v -> %v", small, large)
	}
}

func TestBootstrapCIValidation(t *testing.T) {
	r := rng.New(22)
	if _, _, err := BootstrapCI([]float64{1}, 0.95, 100, r.Intn); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData")
	}
	xs := []float64{1, 2, 3}
	if _, _, err := BootstrapCI(xs, 0, 100, r.Intn); err == nil {
		t.Error("want error for confidence 0")
	}
	if _, _, err := BootstrapCI(xs, 0.95, 5, r.Intn); err == nil {
		t.Error("want error for too few resamples")
	}
	if _, _, err := BootstrapCI(xs, 0.95, 100, nil); err == nil {
		t.Error("want error for nil sampler")
	}
}
