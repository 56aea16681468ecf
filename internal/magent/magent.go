// Package magent implements the paper's evolutionary multi-agent testbed
// (§4.4): "Each agent in the system is a digital organism that can
// self-replicate, mutate, or evolve … First, we consider the amount of a
// resource owned by an agent as the redundancy factor. An agent can
// remain alive until it uses up its resources even if it does not satisfy
// a constraint for a certain period. Second, we measure the diversity of
// a population … with the diversity index in Section 3.2.4. Third, we
// quantify the speed of an adaptation by the number of bits an agent can
// flip at a time."
//
// A World holds a population of agents whose genomes are bit strings
// evaluated against a dcsp.Constraint environment. Each step, fit agents
// earn resource and may replicate (with mutation); unfit agents pay
// upkeep, adapt by flipping up to AdaptBits genome bits toward fitness,
// and die when their resource is exhausted.
package magent

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"resilience/internal/bitstring"
	"resilience/internal/dcsp"
	"resilience/internal/diversity"
	"resilience/internal/rng"
)

// Config parameterizes a World. The three resilience knobs of §4.4 are
// InitialResource (redundancy), FounderGenotypes (diversity), and
// AdaptBits (adaptability).
type Config struct {
	// GenomeLen is the bit-string genome length.
	GenomeLen int
	// InitialAgents is the founding population size.
	InitialAgents int
	// PopulationCap bounds the population; replication is suppressed at
	// the cap.
	PopulationCap int
	// InitialResource is each founder's resource endowment — the
	// redundancy factor.
	InitialResource float64
	// FounderGenotypes is the number of distinct random genotypes among
	// the founders (assigned round-robin) — the diversity knob.
	FounderGenotypes int
	// AdaptBits is how many genome bits an unfit agent may flip per step
	// — the adaptability knob.
	AdaptBits int
	// MutationRate is the per-bit flip probability at replication.
	MutationRate float64
	// IncomeWhenFit is the resource earned per step by fit agents.
	IncomeWhenFit float64
	// UpkeepWhenUnfit is the resource burned per step by unfit agents.
	UpkeepWhenUnfit float64
	// ReplicateAbove is the resource level above which a fit agent
	// splits into two agents sharing its resource.
	ReplicateAbove float64
	// AidShare in [0,1] enables mutual aid within a lineage (§3.4.6:
	// in emergency "the system and the people behave based on a
	// different set of policies (e.g., helping others)"): each step,
	// every agent's resource moves AidShare of the way toward its
	// lineage's mean. Zero disables sharing; total resource is
	// conserved.
	AidShare float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.GenomeLen <= 0:
		return errors.New("magent: genome length must be positive")
	case c.InitialAgents <= 0:
		return errors.New("magent: need at least one founding agent")
	case c.PopulationCap < c.InitialAgents:
		return fmt.Errorf("magent: population cap %d below initial agents %d", c.PopulationCap, c.InitialAgents)
	case c.InitialResource <= 0:
		return errors.New("magent: initial resource must be positive")
	case c.FounderGenotypes <= 0:
		return errors.New("magent: need at least one founder genotype")
	case c.AdaptBits < 0:
		return errors.New("magent: negative adapt bits")
	case c.MutationRate < 0 || c.MutationRate > 1:
		return fmt.Errorf("magent: mutation rate %v out of [0,1]", c.MutationRate)
	case c.IncomeWhenFit < 0 || c.UpkeepWhenUnfit <= 0:
		return errors.New("magent: income must be >= 0 and upkeep > 0")
	case c.ReplicateAbove <= 0:
		return errors.New("magent: replicate threshold must be positive")
	case c.AidShare < 0 || c.AidShare > 1:
		return fmt.Errorf("magent: aid share %v out of [0,1]", c.AidShare)
	}
	return nil
}

// DefaultConfig returns a workable baseline configuration.
func DefaultConfig() Config {
	return Config{
		GenomeLen:        24,
		InitialAgents:    100,
		PopulationCap:    400,
		InitialResource:  10,
		FounderGenotypes: 8,
		AdaptBits:        1,
		MutationRate:     0.01,
		IncomeWhenFit:    1,
		UpkeepWhenUnfit:  2,
		ReplicateAbove:   20,
	}
}

// Agent is one digital organism.
type Agent struct {
	Genome   bitstring.String
	Resource float64
	// Lineage identifies the founding genotype this agent descends from
	// (0..FounderGenotypes-1); children inherit it. Lineages are the
	// "species" level of the paper's granularity hierarchy (§5.2).
	Lineage int
}

// World is a running multi-agent simulation.
type World struct {
	cfg    Config
	env    dcsp.Constraint
	agents []*Agent
	r      *rng.Source
	time   int

	// Per-step scratch, reused so a step allocates nothing for
	// bookkeeping: lineage resource sums and head counts (indexed by
	// Lineage), and the genotype keys and their population counts.
	lineageSum   []float64
	lineageCount []int
	keys         []uint64
	pops         []float64
}

// NewWorld creates a world with founders drawn from FounderGenotypes
// random genotypes.
func NewWorld(cfg Config, env dcsp.Constraint, r *rng.Source) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if env == nil {
		return nil, errors.New("magent: nil environment")
	}
	if env.Len() != cfg.GenomeLen {
		return nil, fmt.Errorf("magent: environment length %d != genome length %d", env.Len(), cfg.GenomeLen)
	}
	founders := make([]bitstring.String, cfg.FounderGenotypes)
	for i := range founders {
		founders[i] = bitstring.Random(cfg.GenomeLen, r)
	}
	w := &World{cfg: cfg, env: env, r: r,
		lineageSum:   make([]float64, cfg.FounderGenotypes),
		lineageCount: make([]int, cfg.FounderGenotypes),
	}
	w.agents = make([]*Agent, cfg.InitialAgents)
	for i := range w.agents {
		w.agents[i] = &Agent{
			Genome:   founders[i%len(founders)].Clone(),
			Resource: cfg.InitialResource,
			Lineage:  i % len(founders),
		}
	}
	return w, nil
}

// Time returns the number of steps taken.
func (w *World) Time() int { return w.time }

// Population returns the number of living agents.
func (w *World) Population() int { return len(w.agents) }

// Environment returns the current constraint.
func (w *World) Environment() dcsp.Constraint { return w.env }

// SetEnvironment swaps the environment — a shock of type "environment
// change from C to C′".
func (w *World) SetEnvironment(env dcsp.Constraint) error {
	if env == nil {
		return errors.New("magent: nil environment")
	}
	if env.Len() != w.cfg.GenomeLen {
		return fmt.Errorf("magent: environment length %d != genome length %d", env.Len(), w.cfg.GenomeLen)
	}
	w.env = env
	return nil
}

// StepStats summarizes one world step.
type StepStats struct {
	Time       int
	Alive      int
	Fit        int
	Births     int
	Deaths     int
	MeanRes    float64
	DiversityG float64
	Genotypes  int
}

// Step advances the world one tick.
func (w *World) Step() StepStats {
	w.time++
	stats := StepStats{Time: w.time}
	survivors := w.agents[:0]
	var births []*Agent
	for _, a := range w.agents {
		fit := w.env.Fit(a.Genome)
		if fit {
			a.Resource += w.cfg.IncomeWhenFit
			stats.Fit++
			if a.Resource > w.cfg.ReplicateAbove &&
				len(w.agents)+len(births) < w.cfg.PopulationCap {
				child := &Agent{Genome: w.mutate(a.Genome), Resource: a.Resource / 2, Lineage: a.Lineage}
				a.Resource /= 2
				births = append(births, child)
				stats.Births++
			}
		} else {
			a.Resource -= w.cfg.UpkeepWhenUnfit
			if a.Resource <= 0 {
				stats.Deaths++
				continue // dies
			}
			w.adapt(a)
		}
		survivors = append(survivors, a)
	}
	w.agents = append(survivors, births...)
	if w.cfg.AidShare > 0 {
		w.shareWithinLineages()
	}
	stats.Alive = len(w.agents)
	var resSum float64
	for _, a := range w.agents {
		resSum += a.Resource
	}
	if stats.Alive > 0 {
		stats.MeanRes = resSum / float64(stats.Alive)
	}
	stats.DiversityG, stats.Genotypes = w.DiversitySnapshot()
	return stats
}

// shareWithinLineages applies mutual aid: each agent's resource moves
// AidShare of the way toward its lineage's mean. The transfer is
// conservative (lineage totals are unchanged) and models the emergency
// norm of §3.4.6 where members subsidize each other through the shock.
// Each lineage's sum adds its members' resources in agent order.
func (w *World) shareWithinLineages() {
	sums, counts := w.lineageSum, w.lineageCount
	clear(sums)
	clear(counts)
	for _, a := range w.agents {
		sums[a.Lineage] += a.Resource
		counts[a.Lineage]++
	}
	for _, a := range w.agents {
		mean := sums[a.Lineage] / float64(counts[a.Lineage])
		a.Resource += w.cfg.AidShare * (mean - a.Resource)
	}
}

// mutate copies a genome, flipping each bit with MutationRate.
func (w *World) mutate(g bitstring.String) bitstring.String {
	child := g.Clone()
	for i := 0; i < child.Len(); i++ {
		if w.r.Bool(w.cfg.MutationRate) {
			child.Flip(i)
		}
	}
	return child
}

// adapt flips up to AdaptBits bits toward fitness: greedy when the
// environment is Graded, random otherwise.
func (w *World) adapt(a *Agent) {
	if w.cfg.AdaptBits == 0 {
		return
	}
	plan := dcsp.GreedyRepairer{Noise: 0.05}.PlanFlips(a.Genome, w.env, w.cfg.AdaptBits, w.r)
	for _, i := range plan {
		a.Genome.Flip(i)
	}
}

// DiversitySnapshot returns the paper's diversity index G over genotype
// counts and the number of distinct genotypes. A dead population yields
// (0, 0).
func (w *World) DiversitySnapshot() (float64, int) {
	if len(w.agents) == 0 {
		return 0, 0
	}
	// Genotypes are tallied by sorting their keys and counting equal runs.
	// Single-word genomes key by integer value into a reused buffer; the
	// textual Key would allocate one string per agent per step. The order
	// of the counts cannot perturb the index: IndexG sums exact
	// integer-valued floats.
	if w.cfg.GenomeLen <= 64 {
		w.keys = w.keys[:0]
		for _, a := range w.agents {
			w.keys = append(w.keys, a.Genome.Uint64())
		}
		w.pops = runLengths(w.pops[:0], w.keys)
	} else {
		keys := make([]string, len(w.agents))
		for i, a := range w.agents {
			keys[i] = a.Genome.Key()
		}
		w.pops = runLengths(w.pops[:0], keys)
	}
	g, err := diversity.IndexG(w.pops)
	if err != nil {
		return 0, len(w.pops)
	}
	return g, len(w.pops)
}

// runLengths sorts keys and appends the length of each run of equal keys
// to pops.
func runLengths[K cmp.Ordered](pops []float64, keys []K) []float64 {
	slices.Sort(keys)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		pops = append(pops, float64(j-i))
		i = j
	}
	return pops
}

// FitFraction returns the share of living agents that satisfy the
// environment (0 for a dead population).
func (w *World) FitFraction() float64 {
	if len(w.agents) == 0 {
		return 0
	}
	fit := 0
	for _, a := range w.agents {
		if w.env.Fit(a.Genome) {
			fit++
		}
	}
	return float64(fit) / float64(len(w.agents))
}

// Agents returns the live agents (shared pointers; treat as read-only).
func (w *World) Agents() []*Agent { return w.agents }

// EnvShift schedules an environment replacement at a step.
type EnvShift struct {
	Step int
	Env  dcsp.Constraint
}

// RunResult is the outcome of a scheduled run.
type RunResult struct {
	History []StepStats
	// Extinct is true if the population died out.
	Extinct bool
	// ExtinctAt is the step of extinction (-1 if survived).
	ExtinctAt int
	// RecoverySteps is the number of steps after the LAST shift until
	// the fit fraction first returned to at least 90% (-1 if never).
	RecoverySteps int
}

// Run advances the world `steps` ticks, applying scheduled environment
// shifts, and reports survival and recovery statistics.
func (w *World) Run(steps int, shifts []EnvShift) (RunResult, error) {
	if steps < 0 {
		return RunResult{}, fmt.Errorf("magent: negative steps %d", steps)
	}
	shiftAt := make(map[int]dcsp.Constraint, len(shifts))
	lastShift := -1
	for _, s := range shifts {
		if s.Env == nil {
			return RunResult{}, errors.New("magent: nil environment in shift")
		}
		shiftAt[s.Step] = s.Env
		if s.Step > lastShift {
			lastShift = s.Step
		}
	}
	res := RunResult{ExtinctAt: -1, RecoverySteps: -1, History: make([]StepStats, 0, steps)}
	for t := 0; t < steps; t++ {
		if env, ok := shiftAt[t]; ok {
			if err := w.SetEnvironment(env); err != nil {
				return RunResult{}, err
			}
		}
		st := w.Step()
		res.History = append(res.History, st)
		if st.Alive == 0 {
			res.Extinct = true
			res.ExtinctAt = t
			break
		}
		if lastShift >= 0 && t >= lastShift && res.RecoverySteps < 0 {
			if w.FitFraction() >= 0.9 {
				res.RecoverySteps = t - lastShift
			}
		}
	}
	return res, nil
}
