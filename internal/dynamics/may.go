package dynamics

import (
	"errors"
	"fmt"
	"math"

	"resilience/internal/rng"
)

// This file addresses the open question the paper closes with (§6): "we
// expect that the model can give some explanations to unsolved
// open-questions in certain areas, such as why the ecosystem in the
// Antarctic Ocean is stable despite the fact that it is very simple (and
// less diverse)."
//
// May (1972) showed that a random community of n species with connectance
// c and interaction strength σ is almost surely UNSTABLE once
// σ·sqrt(n·c) > d (the self-regulation strength): complexity destabilizes.
// Diversity helps a system survive environmental *change* (E06), yet makes
// its equilibrium *dynamics* more fragile — exactly the tension behind the
// Antarctic question. We reproduce May's transition with a
// simulation-based stability test (no eigensolver in the stdlib): the
// linearized dynamics x' = Mx decay from a random perturbation iff every
// eigenvalue has negative real part.

// Community is a linearized ecosystem Jacobian.
type Community struct {
	// N is the number of species.
	N int
	// M is the row-major N×N Jacobian.
	M []float64
}

// RandomCommunity builds May's random Jacobian: diagonal entries are
// −selfReg (each species damps itself); each off-diagonal entry is
// nonzero with probability connectance, drawn from Norm(0, sigma).
func RandomCommunity(n int, connectance, sigma, selfReg float64, r *rng.Source) (*Community, error) {
	c := new(Community)
	if err := c.randomize(n, connectance, sigma, selfReg, r); err != nil {
		return nil, err
	}
	return c, nil
}

// randomize redraws c as RandomCommunity would, reusing c.M's storage.
func (c *Community) randomize(n int, connectance, sigma, selfReg float64, r *rng.Source) error {
	if n < 1 {
		return fmt.Errorf("dynamics: community needs n >= 1, got %d", n)
	}
	if connectance < 0 || connectance > 1 {
		return fmt.Errorf("dynamics: connectance %v out of [0,1]", connectance)
	}
	if sigma < 0 || selfReg <= 0 {
		return errors.New("dynamics: sigma must be >= 0 and selfReg > 0")
	}
	c.N = n
	c.M = resize(c.M, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				c.M[i*n+j] = -selfReg
			case r.Bool(connectance):
				c.M[i*n+j] = r.Norm(0, sigma)
			default:
				c.M[i*n+j] = 0
			}
		}
	}
	return nil
}

// MayThreshold returns σ·sqrt(n·c) — May's complexity measure. The
// community is almost surely stable when this is below the
// self-regulation strength and almost surely unstable above it.
func MayThreshold(n int, connectance, sigma float64) float64 {
	return sigma * math.Sqrt(float64(n)*connectance)
}

// Stable reports whether the community's equilibrium is asymptotically
// stable, by integrating x' = Mx from a random perturbation for the given
// horizon and testing decay. A generic initial vector excites the leading
// eigenmode, so the end-to-start norm ratio discriminates the sign of the
// spectral abscissa; transient (non-normal) growth is averaged out by the
// long horizon.
func (c *Community) Stable(horizon, dt float64, r *rng.Source) (bool, error) {
	return c.stable(horizon, dt, r, new(stableScratch))
}

// stableScratch is the storage one stability test needs; a sweep of
// trials reuses it.
type stableScratch struct {
	// rowStart, cols and vals hold M in compressed-sparse-row form: row
	// i's nonzero entries are vals[rowStart[i]:rowStart[i+1]], at
	// columns cols[...] in increasing order.
	rowStart []int
	cols     []int
	vals     []float64
	x, next  []float64
}

// load fills the sparse rows from the dense Jacobian.
func (s *stableScratch) load(c *Community) {
	n := c.N
	s.rowStart = resize(s.rowStart, n+1)
	s.cols, s.vals = s.cols[:0], s.vals[:0]
	for i := 0; i < n; i++ {
		s.rowStart[i] = len(s.vals)
		for j, m := range c.M[i*n : (i+1)*n] {
			if m != 0 {
				s.cols = append(s.cols, j)
				s.vals = append(s.vals, m)
			}
		}
	}
	s.rowStart[n] = len(s.vals)
}

// euler writes one Euler step of x' = Mx into next: next = x + dt·Mx.
//
// It multiplies over each row's nonzero entries only, in column order.
// That leaves every partial sum bit-identical to the dense product: acc
// starts at +0, and a sum that starts at +0 is never -0, so adding
// m·x[j] = ±0 for an exact zero m leaves it unchanged. This needs x
// finite, which the renormalization in stable every 100 steps keeps it
// unless dt·|M| is large enough to overflow within 100 steps.
func (s *stableScratch) euler(next, x []float64, dt float64) {
	for i := range next {
		var acc float64
		lo, hi := s.rowStart[i], s.rowStart[i+1]
		vals, cols := s.vals[lo:hi], s.cols[lo:hi]
		for k, m := range vals {
			acc += m * x[cols[k]]
		}
		next[i] = x[i] + dt*acc
	}
}

// stable is Stable with caller-owned scratch.
func (c *Community) stable(horizon, dt float64, r *rng.Source, s *stableScratch) (bool, error) {
	if horizon <= 0 || dt <= 0 || dt >= horizon {
		return false, fmt.Errorf("dynamics: invalid horizon %v / dt %v", horizon, dt)
	}
	n := c.N
	s.x, s.next = resize(s.x, n), resize(s.next, n)
	x, next := s.x, s.next
	for i := range x {
		x[i] = r.Norm(0, 1)
	}
	norm0 := norm2(x)
	if norm0 == 0 {
		return false, errors.New("dynamics: degenerate perturbation")
	}
	s.load(c)
	steps := int(horizon / dt)
	// logGrowth accumulates periodic renormalization factors so the
	// state never overflows or underflows; only the total growth rate
	// matters for the stability verdict.
	var logGrowth float64
	for step := 0; step < steps; step++ {
		s.euler(next, x, dt)
		x, next = next, x
		if step%100 == 99 {
			nrm := norm2(x)
			if nrm == 0 {
				return true, nil // fully decayed
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

// StabilityProbability estimates P(stable) over `trials` random
// communities with the given parameters.
func StabilityProbability(n int, connectance, sigma, selfReg float64, trials int, horizon, dt float64, r *rng.Source) (float64, error) {
	if trials < 1 {
		return 0, errors.New("dynamics: trials must be >= 1")
	}
	var c Community
	var scratch stableScratch
	stable := 0
	for t := 0; t < trials; t++ {
		if err := c.randomize(n, connectance, sigma, selfReg, r); err != nil {
			return 0, err
		}
		ok, err := c.stable(horizon, dt, r, &scratch)
		if err != nil {
			return 0, err
		}
		if ok {
			stable++
		}
	}
	return float64(stable) / float64(trials), nil
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func norm2(x []float64) float64 {
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	return math.Sqrt(ss)
}
