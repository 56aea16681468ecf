package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-th quantile of xs by nearest rank: the
// smallest sample with at least q of the samples at or below it. xs
// need not be sorted; it is not modified. An empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowed splits xs (in the order measured) into consecutive windows
// of at least minWindow samples, takes the q-quantile of each, and
// returns the median of those. A burst of
// noise from outside the program (a neighbour on the host, a GC cycle
// of the benchmark itself) then spoils one window, not the figure.
// Fewer than 2·minWindow samples make one window of all of them.
func windowed(xs []float64, minWindow int, q float64) float64 {
	n := len(xs) / minWindow
	if n < 1 {
		n = 1
	}
	per := make([]float64, n)
	for i := range per {
		lo, hi := i*len(xs)/n, (i+1)*len(xs)/n
		per[i] = quantile(xs[lo:hi], q)
	}
	return median(per)
}

// tailWindow is the smallest window that leaves ten samples beyond q.
func tailWindow(q float64) int {
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// tailSupported reports whether q leaves at least ten samples beyond
// it — the rule for which percentile a timing may report.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
