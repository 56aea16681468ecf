package dynamics

import (
	"errors"
	"fmt"
	"math"

	"resilience/internal/rng"
	"resilience/internal/stats"
)

// FoldModel is the canonical bistable system with a fold (saddle-node)
// bifurcation used in the early-warning literature the paper cites
// (Scheffer et al., §3.4.1) — a lake-eutrophication style model:
//
//	dx/dt = Driver − Decay·x + Recovery·x²/(x²+1) + noise
//
// As Driver is ramped up slowly, the low-x equilibrium vanishes at a fold
// and the state jumps to the high-x branch (the "tipping point"). Before
// the jump the system exhibits critical slowing down: rising variance and
// rising lag-1 autocorrelation.
type FoldModel struct {
	// Driver is the slowly changing control parameter (e.g. nutrient
	// loading).
	Driver float64
	// Decay is the linear loss rate b.
	Decay float64
	// Recovery is the strength of the self-reinforcing feedback.
	Recovery float64
	// Noise is the standard deviation of the stochastic forcing per
	// unit time.
	Noise float64
	// Dt is the Euler–Maruyama integration step.
	Dt float64

	// X is the current state.
	X float64
}

// DefaultFoldModel returns the standard parameterization (b=1, r=2.2)
// that tips near Driver ≈ 0.2–0.3.
func DefaultFoldModel() *FoldModel {
	return &FoldModel{Decay: 1, Recovery: 2.2, Noise: 0.01, Dt: 0.1, X: 0.1}
}

// Step advances the model one Dt.
func (m *FoldModel) Step(r *rng.Source) {
	drift := m.Driver - m.Decay*m.X + m.Recovery*m.X*m.X/(m.X*m.X+1)
	dt := m.Dt
	if dt < 0 {
		dt = 0
	}
	m.X += drift*dt + m.Noise*r.Norm(0, 1)*math.Sqrt(dt)
	if m.X < 0 {
		m.X = 0
	}
}

// RampResult is the output of a driver-ramp simulation.
type RampResult struct {
	// X is the state trajectory.
	X []float64
	// Driver is the driver value at each sample.
	Driver []float64
	// TipIndex is the first sample where X exceeded the tipping
	// threshold, or -1 if the system never tipped.
	TipIndex int
}

// RampDriver slowly increases the driver from start to end over steps
// integration steps, recording the trajectory. tipThreshold defines when
// the system counts as having jumped to the upper branch.
func (m *FoldModel) RampDriver(start, end float64, steps int, tipThreshold float64, r *rng.Source) (RampResult, error) {
	if steps <= 1 {
		return RampResult{}, fmt.Errorf("dynamics: ramp needs at least 2 steps, got %d", steps)
	}
	res := RampResult{
		X:        make([]float64, 0, steps),
		Driver:   make([]float64, 0, steps),
		TipIndex: -1,
	}
	for i := 0; i < steps; i++ {
		m.Driver = start + (end-start)*float64(i)/float64(steps-1)
		m.Step(r)
		res.X = append(res.X, m.X)
		res.Driver = append(res.Driver, m.Driver)
		if res.TipIndex < 0 && m.X >= tipThreshold {
			res.TipIndex = i
		}
	}
	return res, nil
}

// Signals carries the early-warning indicators computed over a pre-tip
// window: the Kendall trend of rolling lag-1 autocorrelation and of
// rolling variance. Values near +1 mean a strong rising trend — the
// early-warning signature.
type Signals struct {
	AR1Trend      float64
	VarianceTrend float64
	// FinalAR1 is the last rolling lag-1 autocorrelation value.
	FinalAR1 float64
}

// ErrShortSeries is returned when the series is too short for the chosen
// window.
var ErrShortSeries = errors.New("dynamics: series too short for early-warning analysis")

// EarlyWarning computes Scheffer-style leading indicators on the series:
// rolling windows of the given size produce AR(1) and variance series
// whose Kendall trends are returned. Detrending is done per-window by
// removing the window mean.
func EarlyWarning(series []float64, window int) (Signals, error) {
	ar1, variance, err := rollingSignals(series, window)
	if err != nil {
		return Signals{}, err
	}
	return trends(ar1, variance, new(stats.Kendall))
}

// rollingSignals returns, for every complete window of series, the lag-1
// autocorrelation and the variance in one pass per window. Both are
// bit-identical to stats.Autocorrelation(w, 1) and stats.Variance(w): each
// window's mean is stats.Mean, each accumulator adds the same terms in
// the same order, and Variance's sum of squares is Autocorrelation's
// denominator.
func rollingSignals(series []float64, window int) (ar1, variance []float64, err error) {
	if window < 4 || len(series) < 2*window {
		return nil, nil, ErrShortSeries
	}
	k := len(series) - window + 1
	ar1 = make([]float64, k)
	variance = make([]float64, k)
	for s := range ar1 {
		w := series[s : s+window]
		m := stats.Mean(w)
		var num, den, prev float64
		for i, x := range w {
			d := x - m
			den += d * d
			if i > 0 {
				num += prev * d
			}
			prev = d
		}
		if den != 0 {
			ar1[s] = num / den
		}
		variance[s] = den / float64(window)
	}
	return ar1, variance, nil
}

// trends takes the Kendall trends of the rolling series, reusing k's
// scratch.
func trends(ar1, variance []float64, k *stats.Kendall) (Signals, error) {
	at, err := k.Tau(ar1)
	if err != nil {
		return Signals{}, err
	}
	vt, err := k.Tau(variance)
	if err != nil {
		return Signals{}, err
	}
	return Signals{AR1Trend: at, VarianceTrend: vt, FinalAR1: ar1[len(ar1)-1]}, nil
}

// DetectionResult reports whether and when an early-warning alarm fired.
type DetectionResult struct {
	// Alarmed is true if both trends exceeded the threshold before the
	// tip.
	Alarmed bool
	// AlarmIndex is the sample at which the alarm first fired (-1 if
	// never).
	AlarmIndex int
	// LeadTime is TipIndex − AlarmIndex when both exist.
	LeadTime int
	Signals  Signals
}

// DetectBeforeTip evaluates early-warning detection on a ramp result: it
// scans growing prefixes of the pre-tip series and fires when both trend
// statistics exceed tauThreshold. A negative TipIndex (no tip) yields
// Alarmed=false with the full-series signals.
//
// The rolling windows of a prefix pre[:n] are the first n-window+1
// windows of pre, so one rolling pass over pre serves every prefix.
func DetectBeforeTip(res RampResult, window int, tauThreshold float64) (DetectionResult, error) {
	end := res.TipIndex
	if end < 0 {
		end = len(res.X)
	}
	pre := res.X[:end]
	ar1, variance, err := rollingSignals(pre, window)
	if err != nil {
		return DetectionResult{}, err
	}
	var k stats.Kendall
	full, err := trends(ar1, variance, &k)
	if err != nil {
		return DetectionResult{}, err
	}
	out := DetectionResult{AlarmIndex: -1, LeadTime: -1, Signals: full}
	// Scan prefixes at a coarse stride to find the first alarm point.
	stride := window / 2
	for n := 2 * window; n <= len(pre); n += stride {
		sig, err := trends(ar1[:n-window+1], variance[:n-window+1], &k)
		if err != nil {
			return DetectionResult{}, err
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
