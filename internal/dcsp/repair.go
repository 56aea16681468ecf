package dcsp

import (
	"errors"

	"resilience/internal/bitstring"
	"resilience/internal/rng"
)

// Repairer chooses which bits to flip in one adaptation step. The paper
// models adaptation as "the system flips one bit at a time"; the
// flips-per-step budget is the adaptability knob of §4.4 ("we quantify the
// speed of an adaptation by the number of bits an agent can flip at a
// time").
type Repairer interface {
	// PlanFlips returns up to budget distinct bit indexes to flip in
	// state s under constraint c. Returning an empty plan means the
	// repairer is stuck this step.
	PlanFlips(s bitstring.String, c Constraint, budget int, r *rng.Source) []int
}

// GreedyRepairer flips, at each step, the bits that most reduce the
// violation count of a Graded constraint. With probability Noise it takes
// a random walk step instead (a WalkSAT-style escape from local minima).
type GreedyRepairer struct {
	// Noise in [0,1]: probability of flipping a random bit instead of the
	// greedy choice. Zero is pure hill climbing.
	Noise float64
}

var _ Repairer = GreedyRepairer{}

// PlanFlips implements Repairer. For non-Graded constraints it degrades to
// random flips.
func (g GreedyRepairer) PlanFlips(s bitstring.String, c Constraint, budget int, r *rng.Source) []int {
	graded, ok := c.(Graded)
	if !ok {
		return randomFlips(s.Len(), budget, r)
	}
	if graded.Violations(s) == 0 {
		return nil
	}
	work := s.Clone()
	plan := make([]int, 0, budget)
	for len(plan) < budget {
		cur := graded.Violations(work)
		if cur == 0 {
			break
		}
		if g.Noise > 0 && r.Bool(g.Noise) {
			i := r.Intn(work.Len())
			work.Flip(i)
			plan = append(plan, i)
			continue
		}
		best := -1
		// Evaluate each single-bit flip; ties broken by random scan
		// order so repeated runs do not share deterministic ruts.
		perm := r.Perm(work.Len())
		if unit, ok := c.(unitGraded); ok {
			// The probe loop below keeps the first flip in perm order
			// that lowers the count; for a unit constraint that is the
			// first violated bit, since nothing can lower it by more.
			for _, i := range perm {
				if unit.fixes(work, i) {
					best = i
					break
				}
			}
		} else {
			bestV := cur
			for _, i := range perm {
				work.Flip(i)
				v := graded.Violations(work)
				work.Flip(i)
				if v < bestV {
					best, bestV = i, v
				}
			}
		}
		if best < 0 {
			// Local minimum: random escape.
			best = r.Intn(work.Len())
		}
		work.Flip(best)
		plan = append(plan, best)
	}
	return plan
}

// RandomRepairer flips uniformly random bits — the no-intelligence
// baseline.
type RandomRepairer struct{}

var _ Repairer = RandomRepairer{}

// PlanFlips implements Repairer.
func (RandomRepairer) PlanFlips(s bitstring.String, c Constraint, budget int, r *rng.Source) []int {
	if c.Fit(s) {
		return nil
	}
	return randomFlips(s.Len(), budget, r)
}

func randomFlips(n, budget int, r *rng.Source) []int {
	if budget <= 0 || n == 0 {
		return nil
	}
	if budget > n {
		budget = n
	}
	return r.Perm(n)[:budget]
}

// OptimalRepairer plans flips along a true shortest path to the fit set,
// found by breadth-first search over the configuration hypercube. It is
// exact but exponential in the search depth, so it carries a node budget;
// if the budget is exhausted it falls back to greedy planning.
type OptimalRepairer struct {
	// MaxNodes bounds the BFS frontier; 0 means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes is the BFS node budget used when MaxNodes is zero.
const DefaultMaxNodes = 1 << 18

var _ Repairer = OptimalRepairer{}

// PlanFlips implements Repairer.
func (o OptimalRepairer) PlanFlips(s bitstring.String, c Constraint, budget int, r *rng.Source) []int {
	if c.Fit(s) {
		return nil
	}
	path, err := ShortestRepairPath(s, c, o.maxNodes())
	if err != nil || len(path) == 0 {
		return GreedyRepairer{Noise: 0.1}.PlanFlips(s, c, budget, r)
	}
	if budget > len(path) {
		budget = len(path)
	}
	return path[:budget]
}

func (o OptimalRepairer) maxNodes() int {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return DefaultMaxNodes
}

// ErrSearchExhausted is returned when a bounded search gives up before
// finding a fit configuration.
var ErrSearchExhausted = errors.New("dcsp: search budget exhausted before reaching the fit set")

// ShortestRepairPath returns a minimum-length sequence of bit flips that
// turns s into a fit configuration, by BFS over the hypercube with the
// given node budget.
//
// If the constraint is Enumerable the search instead picks the nearest fit
// configuration by Hamming distance directly, which is exact and cheap.
func ShortestRepairPath(s bitstring.String, c Constraint, maxNodes int) ([]int, error) {
	if c.Fit(s) {
		return nil, nil
	}
	if en, ok := c.(Enumerable); ok {
		return nearestFitFlips(s, en)
	}
	type node struct {
		state  bitstring.String
		parent int
		flip   int
	}
	nodes := []node{{state: s, parent: -1, flip: -1}}
	visited := map[string]struct{}{s.Key(): {}}
	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		for i := 0; i < s.Len(); i++ {
			next := cur.state.Clone()
			next.Flip(i)
			key := next.Key()
			if _, seen := visited[key]; seen {
				continue
			}
			visited[key] = struct{}{}
			nodes = append(nodes, node{state: next, parent: head, flip: i})
			if c.Fit(next) {
				// Reconstruct path.
				var rev []int
				for idx := len(nodes) - 1; idx > 0; idx = nodes[idx].parent {
					rev = append(rev, nodes[idx].flip)
				}
				path := make([]int, 0, len(rev))
				for j := len(rev) - 1; j >= 0; j-- {
					path = append(path, rev[j])
				}
				return path, nil
			}
			if len(nodes) > maxNodes {
				return nil, ErrSearchExhausted
			}
		}
	}
	return nil, ErrSearchExhausted
}

func nearestFitFlips(s bitstring.String, en Enumerable) ([]int, error) {
	bestDist := -1
	var best bitstring.String
	for _, cfg := range en.FitConfigs() {
		d, err := s.Hamming(cfg)
		if err != nil {
			continue
		}
		if bestDist < 0 || d < bestDist {
			bestDist, best = d, cfg
		}
	}
	if bestDist < 0 {
		return nil, ErrSearchExhausted
	}
	diff, err := s.Xor(best)
	if err != nil {
		return nil, err
	}
	return diff.OneIndexes(), nil
}

// DistanceToFit returns the minimum number of bit flips from s to the fit
// set of c — the quantity that determines recoverability under a given
// repair rate.
func DistanceToFit(s bitstring.String, c Constraint, maxNodes int) (int, error) {
	path, err := ShortestRepairPath(s, c, maxNodes)
	if err != nil {
		return 0, err
	}
	return len(path), nil
}
