// Package regulate models the regulatory-adaptability comparison of
// §3.3.3: "A legal system is usually very rigid. Laws take a long time to
// be discussed … However, there are other regulatory approaches … One
// approach is self-regulation by the stakeholders, or co-regulation
// combining top-down guidances (sometimes called 'nudging') and bottom-up
// self-regulations. Ikegai argues that co-regulation is more flexible and
// faster to adapt to the environment change."
//
// The model: N regulated entities each hold a behavior b ∈ [0,1]; the
// environment defines a drifting ideal behavior τ(t) (the moving threat
// landscape of Internet services). Harm of an entity is |b − τ|. Three
// regimes:
//
//   - Statute: one rule, revised only every LegislativeLag steps (set to
//     τ at revision); everyone complies exactly. Slow but uniform.
//   - SelfRegulation: each entity adapts toward its own noisy reading of
//     τ every step — except a defector fraction that ignores τ entirely.
//     Fast on average, unbounded at the tail.
//   - CoRegulation: the statute still anchors (revised with the same
//     lag), entities self-adapt every step, and compliance is enforced
//     only as a band around the statute — defectors are clamped into the
//     band. Fast AND tail-bounded.
package regulate

import (
	"errors"
	"fmt"
	"math"

	"resilience/internal/rng"
	"resilience/internal/stats"
)

// Regime selects the regulatory mechanism.
type Regime int

// Regulatory regimes.
const (
	Statute Regime = iota + 1
	SelfRegulation
	CoRegulation
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case Statute:
		return "statute"
	case SelfRegulation:
		return "self-regulation"
	case CoRegulation:
		return "co-regulation"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// Config parameterizes the simulation.
type Config struct {
	// Entities is the number of regulated actors.
	Entities int
	// DriftRate is the per-step standard deviation of the ideal
	// behavior's reflected random walk in [0,1].
	DriftRate float64
	// ObservationNoise is the standard deviation of each entity's
	// per-step reading of the ideal.
	ObservationNoise float64
	// AdaptGain in (0,1] is how far an entity moves toward its reading
	// per step.
	AdaptGain float64
	// DefectorFraction of entities ignore the ideal entirely and keep a
	// fixed self-serving behavior.
	DefectorFraction float64
	// LegislativeLag is the number of steps between statute revisions.
	LegislativeLag int
	// ComplianceBand is the enforced half-width around the statute in
	// co-regulation.
	ComplianceBand float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Entities < 1:
		return errors.New("regulate: need at least one entity")
	case c.DriftRate < 0 || c.ObservationNoise < 0:
		return errors.New("regulate: negative noise parameters")
	case c.AdaptGain <= 0 || c.AdaptGain > 1:
		return fmt.Errorf("regulate: adapt gain %v out of (0,1]", c.AdaptGain)
	case c.DefectorFraction < 0 || c.DefectorFraction > 1:
		return fmt.Errorf("regulate: defector fraction %v out of [0,1]", c.DefectorFraction)
	case c.LegislativeLag < 1:
		return errors.New("regulate: legislative lag must be >= 1")
	case c.ComplianceBand < 0:
		return errors.New("regulate: negative compliance band")
	}
	return nil
}

// DefaultConfig returns the baseline used by experiment E30.
func DefaultConfig() Config {
	return Config{
		Entities:         200,
		DriftRate:        0.02,
		ObservationNoise: 0.05,
		AdaptGain:        0.5,
		DefectorFraction: 0.1,
		LegislativeLag:   50,
		ComplianceBand:   0.15,
	}
}

// Result summarizes a regime's harm distribution over a run: per-step,
// per-entity misalignment |b − τ|.
type Result struct {
	Regime   Regime
	MeanHarm float64
	P95Harm  float64
	MaxHarm  float64
	// Revisions counts statute updates performed.
	Revisions int
}

// Simulate runs one regime for the given steps.
func Simulate(regime Regime, cfg Config, steps int, r *rng.Source) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if steps < 1 {
		return Result{}, fmt.Errorf("regulate: steps %d must be >= 1", steps)
	}
	switch regime {
	case Statute, SelfRegulation, CoRegulation:
	default:
		return Result{}, fmt.Errorf("regulate: unknown regime %d", regime)
	}
	ideal := 0.5
	statute := ideal
	behaviors := make([]float64, cfg.Entities)
	defector := make([]bool, cfg.Entities)
	for i := range behaviors {
		behaviors[i] = ideal
		if r.Float64() < cfg.DefectorFraction {
			defector[i] = true
			behaviors[i] = r.Float64() // fixed self-serving behavior
		}
	}
	res := Result{Regime: regime}
	harms := make([]float64, 0, steps*cfg.Entities)
	for t := 0; t < steps; t++ {
		// The threat landscape drifts (reflected random walk).
		ideal += r.Norm(0, cfg.DriftRate)
		ideal = reflect01(ideal)
		// Statute revision.
		if (regime == Statute || regime == CoRegulation) && t%cfg.LegislativeLag == 0 {
			statute = ideal
			res.Revisions++
		}
		for i := range behaviors {
			switch regime {
			case Statute:
				behaviors[i] = statute
			case SelfRegulation:
				if !defector[i] {
					reading := ideal + r.Norm(0, cfg.ObservationNoise)
					behaviors[i] += cfg.AdaptGain * (reading - behaviors[i])
				}
			case CoRegulation:
				if !defector[i] {
					reading := ideal + r.Norm(0, cfg.ObservationNoise)
					behaviors[i] += cfg.AdaptGain * (reading - behaviors[i])
				}
				// Enforcement clamps everyone into the statute band.
				behaviors[i] = clamp(behaviors[i], statute-cfg.ComplianceBand, statute+cfg.ComplianceBand)
			}
			behaviors[i] = clamp(behaviors[i], 0, 1)
			harms = append(harms, math.Abs(behaviors[i]-ideal))
		}
	}
	res.MeanHarm = stats.Mean(harms)
	res.MaxHarm = stats.Max(harms)
	// harms is ours and Mean has summed it in order, so the quantile may
	// reorder it instead of copying.
	res.P95Harm = stats.QuantileInPlace(harms, 0.95)
	return res, nil
}

// Compare simulates all three regimes with independent streams split
// from the seed and returns results keyed by regime.
func Compare(cfg Config, steps int, seed uint64) (map[Regime]Result, error) {
	root := rng.New(seed)
	out := make(map[Regime]Result, 3)
	for _, regime := range []Regime{Statute, SelfRegulation, CoRegulation} {
		res, err := Simulate(regime, cfg, steps, root.Split())
		if err != nil {
			return nil, err
		}
		out[regime] = res
	}
	return out, nil
}

func reflect01(x float64) float64 {
	for x < 0 || x > 1 {
		if x < 0 {
			x = -x
		}
		if x > 1 {
			x = 2 - x
		}
	}
	return x
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
