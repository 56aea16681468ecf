// Package stats provides the descriptive and time-series statistics used by
// the resilience experiments: summary statistics, histograms, lag
// autocorrelation (for Scheffer early-warning signals, §3.4.1), Kendall's
// tau trend test, linear regression, and heavy-tail estimators (Hill tail
// index and log–log CCDF fits) for the paper's X-event analysis (§3.4.6).
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more samples than
// it was given.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance; 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value; +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value; -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation on
// the sorted sample. It copies its input. Empty input returns NaN.
func Quantile(xs []float64, q float64) float64 {
	return QuantileInPlace(append([]float64(nil), xs...), q)
}

// QuantileInPlace is Quantile without the copy: it reorders xs, so the
// caller must own xs and be done with its order.
//
// It selects the one or two order statistics the interpolation reads
// instead of sorting, in expected linear time. Without NaN or -0 in xs,
// values that compare equal have identical bits, so the selected values
// are the bits a full sort would leave at those positions. Input holding
// NaN or -0 keeps the sort path: there the sort's placement of NaN, and
// of -0 beside +0, decides the result.
func QuantileInPlace(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	pos := float64(n - 1)
	if q <= 0 {
		pos = 0
	} else if q < 1 {
		pos = q * float64(n-1)
	}
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	var a, b float64
	if sortOnly(xs) {
		sort.Float64s(xs)
		a, b = xs[lo], xs[hi]
	} else {
		selectKth(xs, lo)
		a, b = xs[lo], xs[lo]
		if hi > lo {
			// Everything after lo is >= xs[lo], so the next order
			// statistic is the smallest of the rest.
			b = Min(xs[lo+1:])
		}
	}
	if lo == hi {
		return a
	}
	frac := pos - float64(lo)
	return a*(1-frac) + b*frac
}

// sortOnly reports whether xs holds a NaN or a -0, the values for which
// selection and sort.Float64s may leave different bits at a position.
func sortOnly(xs []float64) bool {
	for _, x := range xs {
		if x != x || (x == 0 && math.Signbit(x)) {
			return true
		}
	}
	return false
}

// selectKth reorders xs, which holds no NaN, so that xs[k] is the k-th
// smallest value, no value before k is larger and no value after k is
// smaller. It is quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal values end a round early. An
// input that defeats the pivot rule falls back to sorting the remaining
// range after 2·log2(n) rounds.
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 1; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		p := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// Partition xs[lo:hi] into [lo,lt) < p, [lt,gt) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Median: Quantile(xs, 0.5),
		P95:    Quantile(xs, 0.95),
		P99:    Quantile(xs, 0.99),
		Max:    Max(xs),
	}
}

// Autocorrelation returns the lag-k sample autocorrelation of xs, the
// central quantity in critical-slowing-down detection: near a tipping
// point, lag-1 autocorrelation rises toward 1.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	if lag < 0 || len(xs) <= lag+1 {
		return 0, ErrInsufficientData
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < len(xs); i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0, nil
	}
	for i := 0; i < len(xs)-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den, nil
}

// KendallTau returns Kendall's rank correlation between xs and the index
// sequence 0..n-1, i.e. a nonparametric trend statistic in [-1, 1].
// Positive values indicate an increasing trend. Scheffer et al. use this to
// quantify rising variance/autocorrelation before a transition.
func KendallTau(xs []float64) (float64, error) {
	var k Kendall
	return k.Tau(xs)
}

// Kendall computes KendallTau with merge buffers it keeps between calls,
// so a scan that takes many trends allocates once. The zero value is
// ready to use; a Kendall is not safe for concurrent use.
type Kendall struct {
	buf []float64
}

// Tau returns KendallTau(xs) in O(n log n).
//
// Over pairs i < j, a pair is discordant when xs[i] > xs[j], concordant
// when xs[i] < xs[j], and neither when the values are equal or either is
// NaN. A merge sort of the non-NaN values counts the discordant pairs as
// its strict inversions; the equal-value runs of the sorted result give
// the ties; the concordant pairs are the rest. These are the integers a
// comparison of every pair counts, so τ is bit-identical to the
// quadratic definition.
func (k *Kendall) Tau(xs []float64) (float64, error) {
	n := len(xs)
	if n < 2 {
		return 0, ErrInsufficientData
	}
	if cap(k.buf) < 2*n {
		k.buf = make([]float64, 2*n)
	}
	vals, tmp := k.buf[:0], k.buf[n:2*n]
	for _, x := range xs {
		if x == x {
			vals = append(vals, x)
		}
	}
	discordant := sortCountInversions(vals, tmp)
	ties, run := 0, 1
	for i := 1; i <= len(vals); i++ {
		if i < len(vals) && vals[i] == vals[i-1] {
			run++
			continue
		}
		ties += run * (run - 1) / 2
		run = 1
	}
	m := len(vals)
	concordant := m*(m-1)/2 - ties - discordant
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// sortCountInversions sorts a ascending, using tmp (at least as long as
// a) as scratch, and returns the number of pairs i < j with a[i] > a[j].
// Insertion sort over short runs counts each run's inversions as its
// shifts; each bottom-up merge then counts, whenever it takes a strictly
// smaller value from the right half, the values still waiting on the left.
func sortCountInversions(a, tmp []float64) int {
	const run = 16
	n := len(a)
	inv := 0
	for lo := 0; lo < n; lo += run {
		hi := min(lo+run, n)
		for i := lo + 1; i < hi; i++ {
			x, j := a[i], i
			for j > lo && a[j-1] > x {
				a[j] = a[j-1]
				j--
			}
			inv += i - j
			a[j] = x
		}
	}
	src, dst := a, tmp[:n]
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[j] < src[i] {
					dst[k] = src[j]
					j++
					inv += mid - i
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &a[0] {
		copy(a, src)
	}
	return inv
}

// LinearFit holds the result of an ordinary-least-squares line fit.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits y = Slope*x + Intercept by least squares.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// HillEstimator returns the Hill estimate of the power-law tail index alpha
// using the k largest order statistics of xs. All samples used must be
// positive. Typical usage: k ~ 10% of n.
func HillEstimator(xs []float64, k int) (float64, error) {
	if k < 1 || len(xs) <= k {
		return 0, ErrInsufficientData
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	// Largest k+1 order statistics.
	tail := sorted[len(sorted)-k-1:]
	if tail[0] <= 0 {
		return 0, errors.New("stats: hill estimator requires positive tail samples")
	}
	var sum float64
	for _, x := range tail[1:] {
		sum += math.Log(x / tail[0])
	}
	if sum == 0 {
		return 0, errors.New("stats: hill estimator degenerate tail")
	}
	return float64(k) / sum, nil
}

// FitPowerLawCCDF fits P(X >= x) ~ x^(-alpha) by log–log regression on the
// empirical CCDF above xmin, returning the estimated alpha and the fit R².
func FitPowerLawCCDF(xs []float64, xmin float64) (alpha, r2 float64, err error) {
	var tail []float64
	for _, x := range xs {
		if x >= xmin && x > 0 {
			tail = append(tail, x)
		}
	}
	if len(tail) < 10 {
		return 0, 0, ErrInsufficientData
	}
	sort.Float64s(tail)
	n := len(tail)
	logx := make([]float64, 0, n)
	logp := make([]float64, 0, n)
	for i, x := range tail {
		// CCDF at x: fraction of samples >= x.
		p := float64(n-i) / float64(n)
		logx = append(logx, math.Log(x))
		logp = append(logp, math.Log(p))
	}
	fit, err := FitLine(logx, logp)
	if err != nil {
		return 0, 0, err
	}
	return -fit.Slope, fit.R2, nil
}

// Histogram is a fixed-bin linear histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	under  int
	over   int
	total  int
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || hi <= lo {
		return nil, errors.New("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() int { return h.total }

// Outliers returns counts below Lo and at/above Hi.
func (h *Histogram) Outliers() (under, over int) { return h.under, h.over }

// LogHistogram bins positive observations into logarithmically spaced
// buckets — the natural view of avalanche-size and X-event magnitude
// distributions.
type LogHistogram struct {
	base   float64
	Counts map[int]int
	total  int
}

// NewLogHistogram creates a log-histogram with the given base (>1), e.g. 2
// for doubling buckets.
func NewLogHistogram(base float64) (*LogHistogram, error) {
	if base <= 1 {
		return nil, errors.New("stats: log histogram base must exceed 1")
	}
	return &LogHistogram{base: base, Counts: map[int]int{}}, nil
}

// Add records one positive observation; non-positive values are counted in
// Total but placed in bucket math.MinInt.
func (h *LogHistogram) Add(x float64) {
	h.total++
	if x <= 0 {
		h.Counts[math.MinInt]++
		return
	}
	h.Counts[int(math.Floor(math.Log(x)/math.Log(h.base)))]++
}

// Total returns the number of observations recorded.
func (h *LogHistogram) Total() int { return h.total }

// Buckets returns the bucket exponents in increasing order along with
// their counts and the bucket lower bounds (base^exponent).
func (h *LogHistogram) Buckets() (exponents []int, lowerBounds []float64, counts []int) {
	exponents = make([]int, 0, len(h.Counts))
	for e := range h.Counts {
		if e == math.MinInt {
			continue
		}
		exponents = append(exponents, e)
	}
	sort.Ints(exponents)
	lowerBounds = make([]float64, len(exponents))
	counts = make([]int, len(exponents))
	for i, e := range exponents {
		lowerBounds[i] = math.Pow(h.base, float64(e))
		counts[i] = h.Counts[e]
	}
	return exponents, lowerBounds, counts
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of xs: `resamples` resamples with replacement are drawn using
// intn, and the (1−confidence)/2 and (1+confidence)/2 quantiles of their
// means are returned. Survival rates and loss means in the experiment
// tables use this to show sampling uncertainty.
func BootstrapCI(xs []float64, confidence float64, resamples int, intn func(int) int) (lo, hi float64, err error) {
	if len(xs) < 2 {
		return 0, 0, ErrInsufficientData
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, errors.New("stats: confidence out of (0,1)")
	}
	if resamples < 10 {
		return 0, 0, errors.New("stats: need at least 10 resamples")
	}
	if intn == nil {
		return 0, 0, errors.New("stats: nil sampler")
	}
	means := make([]float64, resamples)
	n := len(xs)
	for b := 0; b < resamples; b++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += xs[intn(n)]
		}
		means[b] = sum / float64(n)
	}
	alpha := (1 - confidence) / 2
	return Quantile(means, alpha), Quantile(means, 1-alpha), nil
}
