// Package dcsp implements the paper's mathematical model of resilience
// (§4, Fig 4): a system whose status is a bit string of length n operating
// in an environment represented as a constraint — "a subset C of all fit
// configurations. A system configuration s is said to be fit iff s ∈ C."
// Shocks (events of type D) change the environment from C to C′ and may
// damage the state; the system adapts "by flipping some bits" — one or
// more per step — and is k-recoverable if it can fix its configuration for
// any perturbation of type D within k steps.
package dcsp

import (
	"errors"
	"fmt"

	"resilience/internal/bitstring"
	"resilience/internal/rng"
)

// ErrDimensionMismatch is returned when a configuration's length does not
// match the constraint's variable count.
var ErrDimensionMismatch = errors.New("dcsp: configuration length does not match constraint")

// Constraint is an environment: the set C of fit configurations over
// bit strings of length Len().
type Constraint interface {
	// Len is the number of Boolean variables n.
	Len() int
	// Fit reports whether s ∈ C. Implementations treat a wrong-length s
	// as unfit.
	Fit(s bitstring.String) bool
}

// Graded is a constraint that can quantify how far a configuration is from
// fitness, enabling greedy repair and partial-quality measurement.
type Graded interface {
	Constraint
	// Violations returns a non-negative count that is zero iff Fit(s).
	Violations(s bitstring.String) int
	// MaxViolations is the largest value Violations can return.
	MaxViolations() int
}

// Enumerable is a constraint whose fit set can be listed explicitly,
// enabling exact distance computation and exhaustive recoverability checks.
type Enumerable interface {
	Constraint
	// FitConfigs returns all fit configurations. Callers must not mutate
	// the returned strings.
	FitConfigs() []bitstring.String
}

// unitGraded is a Graded constraint whose Violations moves by at most one
// when one bit flips. A flip lowers the count exactly when it fixes a
// violated bit, so greedy repair asks fixes instead of re-counting
// Violations for every candidate bit.
type unitGraded interface {
	Graded
	// fixes reports whether flipping bit i of s lowers Violations(s).
	fixes(s bitstring.String, i int) bool
}

// AllOnes is the spacecraft constraint of §4.2: C = 1ⁿ — "every component
// of the spacecraft is good".
type AllOnes struct {
	N int
}

var (
	_ unitGraded = AllOnes{}
	_ Enumerable = AllOnes{}
)

// Len returns the number of variables.
func (c AllOnes) Len() int { return c.N }

// Fit reports whether every bit is one.
func (c AllOnes) Fit(s bitstring.String) bool {
	return s.Len() == c.N && s.Count() == c.N
}

// Violations counts the failed (zero) components.
func (c AllOnes) Violations(s bitstring.String) int {
	if s.Len() != c.N {
		return c.N
	}
	return c.N - s.Count()
}

// MaxViolations returns N.
func (c AllOnes) MaxViolations() int { return c.N }

// fixes reports whether bit i is a failed component. A wrong-length s
// scores N whatever its bits, so no flip fixes it.
func (c AllOnes) fixes(s bitstring.String, i int) bool {
	return s.Len() == c.N && !s.Get(i)
}

// FitConfigs returns the single configuration 1ⁿ.
func (c AllOnes) FitConfigs() []bitstring.String {
	return []bitstring.String{bitstring.Ones(c.N)}
}

// AtLeast requires at least K ones — a capacity constraint: the system
// needs K functioning units out of N (e.g. generation capacity, §3.1.2).
type AtLeast struct {
	N, K int
}

var _ Graded = AtLeast{}

// Len returns the number of variables.
func (c AtLeast) Len() int { return c.N }

// Fit reports whether at least K bits are set.
func (c AtLeast) Fit(s bitstring.String) bool {
	return s.Len() == c.N && s.Count() >= c.K
}

// Violations returns how many additional ones are needed.
func (c AtLeast) Violations(s bitstring.String) int {
	if s.Len() != c.N {
		return c.K
	}
	if d := c.K - s.Count(); d > 0 {
		return d
	}
	return 0
}

// MaxViolations returns K.
func (c AtLeast) MaxViolations() int { return c.K }

// Mask requires the bits selected by Care to equal Template. Bits outside
// Care are free. It models environments that pin some variables — e.g. a
// regulation fixing part of the configuration.
type Mask struct {
	Template bitstring.String
	Care     bitstring.String
}

var _ unitGraded = Mask{}

// NewMask builds a Mask constraint; template and care must have equal
// length.
func NewMask(template, care bitstring.String) (Mask, error) {
	if template.Len() != care.Len() {
		return Mask{}, ErrDimensionMismatch
	}
	return Mask{Template: template.Clone(), Care: care.Clone()}, nil
}

// Len returns the number of variables.
func (c Mask) Len() int { return c.Template.Len() }

// Fit reports whether all cared bits match the template.
func (c Mask) Fit(s bitstring.String) bool { return c.Violations(s) == 0 && s.Len() == c.Len() }

// Violations counts cared bits that differ from the template. It runs
// allocation-free: greedy repair probes it once per candidate flip, so a
// materialized XOR/AND intermediate here dominated the whole suite's
// allocation profile.
func (c Mask) Violations(s bitstring.String) int {
	d, err := s.MaskedHamming(c.Template, c.Care)
	if err != nil {
		return c.MaxViolations()
	}
	return d
}

// fixes reports whether bit i is cared and differs from the template.
// When the lengths of s, Template and Care disagree, Violations is
// MaxViolations whatever the bits, so no flip fixes it.
func (c Mask) fixes(s bitstring.String, i int) bool {
	n := s.Len()
	if n != c.Template.Len() || n != c.Care.Len() {
		return false
	}
	return c.Care.Get(i) && s.Get(i) != c.Template.Get(i)
}

// MaxViolations returns the number of cared bits.
func (c Mask) MaxViolations() int {
	if n := c.Care.Count(); n > 0 {
		return n
	}
	return 1
}

// Set is an explicit environment: the fit set is exactly the given
// configurations.
type Set struct {
	n       int
	configs []bitstring.String
	index   map[string]struct{}
}

var _ Enumerable = (*Set)(nil)

// NewSet builds a Set constraint over n variables from the given fit
// configurations; all must have length n and there must be at least one.
func NewSet(n int, configs ...bitstring.String) (*Set, error) {
	if len(configs) == 0 {
		return nil, errors.New("dcsp: set constraint needs at least one fit configuration")
	}
	s := &Set{n: n, index: make(map[string]struct{}, len(configs))}
	for _, c := range configs {
		if c.Len() != n {
			return nil, ErrDimensionMismatch
		}
		key := c.Key()
		if _, dup := s.index[key]; dup {
			continue
		}
		s.index[key] = struct{}{}
		s.configs = append(s.configs, c.Clone())
	}
	return s, nil
}

// Len returns the number of variables.
func (c *Set) Len() int { return c.n }

// Fit reports membership in the explicit fit set.
func (c *Set) Fit(s bitstring.String) bool {
	if s.Len() != c.n {
		return false
	}
	_, ok := c.index[s.Key()]
	return ok
}

// FitConfigs lists the fit set.
func (c *Set) FitConfigs() []bitstring.String { return c.configs }

// Predicate wraps an arbitrary fitness test.
type Predicate struct {
	N  int
	Fn func(bitstring.String) bool
}

var _ Constraint = Predicate{}

// Len returns the number of variables.
func (c Predicate) Len() int { return c.N }

// Fit applies the predicate.
func (c Predicate) Fit(s bitstring.String) bool {
	return s.Len() == c.N && c.Fn != nil && c.Fn(s)
}

// Literal is a possibly negated variable reference in a CNF clause.
type Literal struct {
	Var int
	Neg bool
}

// Clause is a disjunction of literals.
type Clause []Literal

// Satisfied reports whether any literal of the clause holds under s.
func (cl Clause) Satisfied(s bitstring.String) bool {
	for _, lit := range cl {
		if s.Get(lit.Var) != lit.Neg {
			return true
		}
	}
	return false
}

// CNF is a conjunctive-normal-form environment: fit iff every clause is
// satisfied. Random satisfiable instances model rugged, structured
// environments for the recoverability experiments.
type CNF struct {
	N       int
	Clauses []Clause
}

var _ Graded = CNF{}

// Len returns the number of variables.
func (c CNF) Len() int { return c.N }

// Fit reports whether all clauses are satisfied.
func (c CNF) Fit(s bitstring.String) bool {
	return s.Len() == c.N && c.Violations(s) == 0
}

// Violations counts unsatisfied clauses.
func (c CNF) Violations(s bitstring.String) int {
	if s.Len() != c.N {
		return c.MaxViolations()
	}
	v := 0
	for _, cl := range c.Clauses {
		if !cl.Satisfied(s) {
			v++
		}
	}
	return v
}

// MaxViolations returns the clause count (at least 1).
func (c CNF) MaxViolations() int {
	if len(c.Clauses) > 0 {
		return len(c.Clauses)
	}
	return 1
}

// RandomPlantedCNF generates a satisfiable CNF over n variables with the
// given number of clauses of k literals each, planted around a random
// solution (every clause is satisfied by the planted assignment). It
// returns the formula and the planted solution.
func RandomPlantedCNF(n, clauses, k int, r *rng.Source) (CNF, bitstring.String, error) {
	if n <= 0 || clauses < 0 || k <= 0 || k > n {
		return CNF{}, bitstring.String{}, fmt.Errorf("dcsp: invalid cnf shape n=%d clauses=%d k=%d", n, clauses, k)
	}
	planted := bitstring.Random(n, r)
	cnf := CNF{N: n, Clauses: make([]Clause, 0, clauses)}
	for len(cnf.Clauses) < clauses {
		vars := r.Perm(n)[:k]
		cl := make(Clause, k)
		for i, v := range vars {
			cl[i] = Literal{Var: v, Neg: r.Bool(0.5)}
		}
		if !cl.Satisfied(planted) {
			// Fix one literal so the planted assignment satisfies the
			// clause.
			i := r.Intn(k)
			cl[i].Neg = !planted.Get(cl[i].Var)
		}
		cnf.Clauses = append(cnf.Clauses, cl)
	}
	return cnf, planted, nil
}
