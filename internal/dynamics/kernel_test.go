package dynamics

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"resilience/internal/rng"
	"resilience/internal/stats"
)

// The references below are the kernels the fast paths replaced, kept
// so every fast path is pinned to the old bits. The Kendall trend itself
// is pinned to its quadratic definition in internal/stats, so these use
// stats.KendallTau.

func refRollingApply(xs []float64, window int, f func([]float64) float64) []float64 {
	if window <= 0 || len(xs) < window {
		return nil
	}
	out := make([]float64, 0, len(xs)-window+1)
	for i := 0; i+window <= len(xs); i++ {
		out = append(out, f(xs[i:i+window]))
	}
	return out
}

func refEarlyWarning(series []float64, window int) (Signals, error) {
	if window < 4 || len(series) < 2*window {
		return Signals{}, ErrShortSeries
	}
	ar1 := refRollingApply(series, window, func(w []float64) float64 {
		ac, err := stats.Autocorrelation(w, 1)
		if err != nil {
			return 0
		}
		return ac
	})
	variance := refRollingApply(series, window, stats.Variance)
	at, err := stats.KendallTau(ar1)
	if err != nil {
		return Signals{}, err
	}
	vt, err := stats.KendallTau(variance)
	if err != nil {
		return Signals{}, err
	}
	return Signals{AR1Trend: at, VarianceTrend: vt, FinalAR1: ar1[len(ar1)-1]}, nil
}

func refDetectBeforeTip(res RampResult, window int, tauThreshold float64) (DetectionResult, error) {
	end := res.TipIndex
	if end < 0 {
		end = len(res.X)
	}
	pre := res.X[:end]
	out := DetectionResult{AlarmIndex: -1, LeadTime: -1}
	full, err := refEarlyWarning(pre, window)
	if err != nil {
		return DetectionResult{}, err
	}
	out.Signals = full
	stride := window / 2
	if stride < 1 {
		stride = 1
	}
	for n := 2 * window; n <= len(pre); n += stride {
		sig, err := refEarlyWarning(pre[:n], window)
		if err != nil {
			continue
		}
		if sig.AR1Trend >= tauThreshold && sig.VarianceTrend >= tauThreshold {
			out.Alarmed = true
			out.AlarmIndex = n - 1
			if res.TipIndex >= 0 {
				out.LeadTime = res.TipIndex - out.AlarmIndex
			}
			break
		}
	}
	return out, nil
}

// refEuler is the dense mat-vec step the sparse rows replaced.
func refEuler(c *Community, next, x []float64, dt float64) {
	n := c.N
	for i := 0; i < n; i++ {
		var acc float64
		row := c.M[i*n : (i+1)*n]
		for j, m := range row {
			acc += m * x[j]
		}
		next[i] = x[i] + dt*acc
	}
}

func refStable(c *Community, horizon, dt float64, r *rng.Source) (bool, error) {
	if horizon <= 0 || dt <= 0 || dt >= horizon {
		return false, fmt.Errorf("dynamics: invalid horizon %v / dt %v", horizon, dt)
	}
	n := c.N
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Norm(0, 1)
	}
	norm0 := norm2(x)
	if norm0 == 0 {
		return false, errors.New("dynamics: degenerate perturbation")
	}
	next := make([]float64, n)
	steps := int(horizon / dt)
	var logGrowth float64
	for s := 0; s < steps; s++ {
		refEuler(c, next, x, dt)
		x, next = next, x
		if s%100 == 99 {
			nrm := norm2(x)
			if nrm == 0 {
				return true, nil
			}
			logGrowth += math.Log(nrm / norm0)
			scale := norm0 / nrm
			for i := range x {
				x[i] *= scale
			}
		}
	}
	total := logGrowth + math.Log(norm2(x)/norm0)
	return total < 0, nil
}

func sameSignals(a, b Signals) bool {
	return math.Float64bits(a.AR1Trend) == math.Float64bits(b.AR1Trend) &&
		math.Float64bits(a.VarianceTrend) == math.Float64bits(b.VarianceTrend) &&
		math.Float64bits(a.FinalAR1) == math.Float64bits(b.FinalAR1)
}

// warningSeries returns seeded series for the early-warning kernels: fold
// ramps that tip and that do not, white noise, and a series with a
// constant stretch (a zero-variance window) and a NaN.
func warningSeries(t *testing.T) map[string][]float64 {
	t.Helper()
	out := map[string][]float64{}
	for seed := uint64(1); seed <= 4; seed++ {
		m := DefaultFoldModel()
		res, err := m.RampDriver(0, 0.45, 6000, 1.0, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("ramp%d", seed)] = res.X
	}
	r := rng.New(9)
	noise := make([]float64, 1500)
	for i := range noise {
		noise[i] = r.Norm(0, 1)
	}
	out["noise"] = noise
	flat := append([]float64(nil), noise[:600]...)
	for i := 100; i < 300; i++ {
		flat[i] = 2.5
	}
	flat[450] = math.NaN()
	out["flat+nan"] = flat
	return out
}

func TestEarlyWarningMatchesComposition(t *testing.T) {
	for name, xs := range warningSeries(t) {
		for _, window := range []int{2, 4, 5, 37, 100, 400} {
			want, wantErr := refEarlyWarning(xs, window)
			got, err := EarlyWarning(xs, window)
			if !errors.Is(err, wantErr) || !sameSignals(got, want) {
				t.Fatalf("%s window %d: got %+v, %v; want %+v, %v", name, window, got, err, want, wantErr)
			}
		}
	}
}

func TestDetectBeforeTipMatchesPrefixScan(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		m := DefaultFoldModel()
		res, err := m.RampDriver(0, 0.45, 3000, 1.0, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		noTip := res
		noTip.TipIndex = -1
		for _, rr := range []RampResult{res, noTip} {
			for _, window := range []int{3, 25, 300} {
				for _, tau := range []float64{0.3, 0.95} {
					want, wantErr := refDetectBeforeTip(rr, window, tau)
					got, err := DetectBeforeTip(rr, window, tau)
					if !errors.Is(err, wantErr) || got.Alarmed != want.Alarmed ||
						got.AlarmIndex != want.AlarmIndex || got.LeadTime != want.LeadTime ||
						!sameSignals(got.Signals, want.Signals) {
						t.Fatalf("seed %d tip %d window %d tau %v: got %+v, %v; want %+v, %v",
							seed, rr.TipIndex, window, tau, got, err, want, wantErr)
					}
				}
			}
		}
	}
}

// testCommunities returns communities at every size the May experiment
// sweeps, plus ones with all-zero rows.
func testCommunities(t *testing.T) []*Community {
	t.Helper()
	r := rng.New(21)
	var out []*Community
	for _, n := range []int{1, 4, 8, 16, 22, 32, 64} {
		for _, conn := range []float64{0, 0.3, 1} {
			c, err := RandomCommunity(n, conn, 0.45, 1, r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	zero := &Community{N: 6, M: make([]float64, 36)}
	out = append(out, zero)
	partial, err := RandomCommunity(16, 0.5, 0.8, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 7, 15} {
		clear(partial.M[i*16 : (i+1)*16])
	}
	return append(out, partial)
}

func TestSparseEulerMatchesDense(t *testing.T) {
	r := rng.New(5)
	var s stableScratch
	for ci, c := range testCommunities(t) {
		s.load(c)
		x := make([]float64, c.N)
		for i := range x {
			x[i] = r.Norm(0, 1)
		}
		xs, xd := append([]float64(nil), x...), append([]float64(nil), x...)
		ns, nd := make([]float64, c.N), make([]float64, c.N)
		for step := 0; step < 500; step++ {
			s.euler(ns, xs, 0.02)
			refEuler(c, nd, xd, 0.02)
			for i := range ns {
				if math.Float64bits(ns[i]) != math.Float64bits(nd[i]) {
					t.Fatalf("community %d (n=%d) step %d: x[%d] = %v, dense %v", ci, c.N, step, i, ns[i], nd[i])
				}
			}
			xs, ns = ns, xs
			xd, nd = nd, xd
		}
	}
}

func TestStableMatchesDense(t *testing.T) {
	for ci, c := range testCommunities(t) {
		for _, horizon := range []float64{30, 60} {
			rs, rd := rng.New(uint64(ci)+1), rng.New(uint64(ci)+1)
			got, err := c.Stable(horizon, 0.02, rs)
			want, wantErr := refStable(c, horizon, 0.02, rd)
			if (err == nil) != (wantErr == nil) || got != want {
				t.Fatalf("community %d (n=%d) horizon %v: got %v, %v; want %v, %v", ci, c.N, horizon, got, err, want, wantErr)
			}
			if a, b := rs.Uint64(), rd.Uint64(); a != b {
				t.Fatalf("community %d: random stream diverged after Stable", ci)
			}
		}
	}
}

func TestStabilityProbabilityMatchesFreshCommunities(t *testing.T) {
	for _, n := range []int{4, 8, 16, 22, 32, 64} {
		rs, rd := rng.New(uint64(n)), rng.New(uint64(n))
		got, err := StabilityProbability(n, 0.3, 0.45, 1, 10, 30, 0.02, rs)
		if err != nil {
			t.Fatal(err)
		}
		stable := 0
		for trial := 0; trial < 10; trial++ {
			c, err := RandomCommunity(n, 0.3, 0.45, 1, rd)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := refStable(c, 30, 0.02, rd)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				stable++
			}
		}
		want := float64(stable) / 10
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: P(stable) %v, fresh dense trials %v", n, got, want)
		}
		if rs.Uint64() != rd.Uint64() {
			t.Fatalf("n=%d: random stream diverged", n)
		}
	}
}

func TestStabilityProbabilityReusesScratch(t *testing.T) {
	r := rng.New(1)
	one := testing.AllocsPerRun(3, func() {
		if _, err := StabilityProbability(32, 0.3, 0.45, 1, 1, 2, 0.02, r); err != nil {
			t.Fatal(err)
		}
	})
	many := testing.AllocsPerRun(3, func() {
		if _, err := StabilityProbability(32, 0.3, 0.45, 1, 20, 2, 0.02, r); err != nil {
			t.Fatal(err)
		}
	})
	if many != one {
		t.Fatalf("20 trials allocated %v times, 1 trial %v: per-trial buffers are not reused", many, one)
	}
}
