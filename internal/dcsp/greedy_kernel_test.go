package dcsp

import (
	"fmt"
	"slices"
	"testing"

	"resilience/internal/bitstring"
	"resilience/internal/rng"
)

// refGreedyPlan is GreedyRepairer.PlanFlips as it was before unit
// constraints skipped the probe loop: every candidate flip re-counts
// Violations. The fast path must return the same plan and leave the
// random stream at the same position.
func refGreedyPlan(g GreedyRepairer, s bitstring.String, c Constraint, budget int, r *rng.Source) []int {
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
		best, bestV := -1, cur
		for _, i := range r.Perm(work.Len()) {
			work.Flip(i)
			v := graded.Violations(work)
			work.Flip(i)
			if v < bestV {
				best, bestV = i, v
			}
		}
		if best < 0 {
			best = r.Intn(work.Len())
		}
		work.Flip(best)
		plan = append(plan, best)
	}
	return plan
}

func TestGreedyUnitConstraintsMatchProbeLoop(t *testing.T) {
	gen := rng.New(99)
	type tc struct {
		name string
		c    Constraint
		n    int // state length; differs from the constraint's on mismatch cases
	}
	var cases []tc
	for _, n := range []int{1, 7, 24, 64, 70} {
		cases = append(cases, tc{fmt.Sprintf("allones%d", n), AllOnes{N: n}, n})
		m, err := NewMask(bitstring.Random(n, gen), bitstring.Random(n, gen))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("mask%d", n), m, n})
	}
	cases = append(cases,
		tc{"allones-short-state", AllOnes{N: 10}, 8},
		tc{"mask-long-state", Mask{Template: bitstring.Random(12, gen), Care: bitstring.Ones(12)}, 16},
		tc{"mask-care-mismatch", Mask{Template: bitstring.Random(12, gen), Care: bitstring.Ones(9)}, 12},
		tc{"mask-no-care", Mask{Template: bitstring.Random(12, gen), Care: bitstring.New(12)}, 12},
	)
	cnf, _, err := RandomPlantedCNF(14, 40, 3, gen)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"cnf-probe-loop", cnf, 14})

	for _, c := range cases {
		for _, noise := range []float64{0, 0.05, 0.5} {
			for trial := 0; trial < 40; trial++ {
				s := bitstring.Random(c.n, gen)
				budget := 1 + trial%5
				seed := gen.Uint64()
				rf, rr := rng.New(seed), rng.New(seed)
				g := GreedyRepairer{Noise: noise}
				got := g.PlanFlips(s, c.c, budget, rf)
				want := refGreedyPlan(g, s, c.c, budget, rr)
				if !slices.Equal(got, want) {
					t.Fatalf("%s noise %v trial %d: plan %v, probe loop %v", c.name, noise, trial, got, want)
				}
				if a, b := rf.Uint64(), rr.Uint64(); a != b {
					t.Fatalf("%s noise %v trial %d: random stream diverged", c.name, noise, trial)
				}
			}
		}
	}
}
