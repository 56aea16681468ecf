package magent

import (
	"math"
	"testing"

	"resilience/internal/bitstring"
	"resilience/internal/dcsp"
	"resilience/internal/diversity"
	"resilience/internal/rng"
)

// refDiversity is the map tally DiversitySnapshot replaced.
func refDiversity(agents []*Agent) (float64, int) {
	if len(agents) == 0 {
		return 0, 0
	}
	counts := map[string]int{}
	for _, a := range agents {
		counts[a.Genome.Key()]++
	}
	g, err := diversity.IndexG(diversity.CountsToPops(counts))
	if err != nil {
		return 0, len(counts)
	}
	return g, len(counts)
}

// refShare is the map-keyed mutual aid shareWithinLineages replaced,
// applied to a copy of the resources.
func refShare(agents []*Agent, share float64) []float64 {
	sums := map[int]float64{}
	counts := map[int]int{}
	for _, a := range agents {
		sums[a.Lineage] += a.Resource
		counts[a.Lineage]++
	}
	out := make([]float64, len(agents))
	for i, a := range agents {
		mean := sums[a.Lineage] / float64(counts[a.Lineage])
		out[i] = a.Resource + share*(mean-a.Resource)
	}
	return out
}

func TestTalliesMatchMaps(t *testing.T) {
	for _, genomeLen := range []int{6, 24, 64, 80} {
		for _, founders := range []int{1, 3, 8} {
			cfg := DefaultConfig()
			cfg.GenomeLen = genomeLen
			cfg.FounderGenotypes = founders
			cfg.MutationRate = 0.05
			cfg.AidShare = 0.4
			r := rng.New(uint64(genomeLen*10 + founders))
			// Care about every eighth bit, so the population lives long
			// enough at every genome length to mutate and branch.
			care := bitstring.New(genomeLen)
			for i := 0; i < genomeLen; i += 8 {
				care.Set(i, true)
			}
			env, err := dcsp.NewMask(bitstring.Random(genomeLen, r), care)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(cfg, env, r)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 60 && w.Population() > 0; step++ {
				g, n := w.DiversitySnapshot()
				wantG, wantN := refDiversity(w.Agents())
				if n != wantN || math.Float64bits(g) != math.Float64bits(wantG) {
					t.Fatalf("len %d founders %d step %d: snapshot (%v, %d), map tally (%v, %d)",
						genomeLen, founders, step, g, n, wantG, wantN)
				}
				want := refShare(w.Agents(), cfg.AidShare)
				w.shareWithinLineages()
				for i, a := range w.Agents() {
					if math.Float64bits(a.Resource) != math.Float64bits(want[i]) {
						t.Fatalf("len %d founders %d step %d: agent %d resource %v, map-keyed aid %v",
							genomeLen, founders, step, i, a.Resource, want[i])
					}
				}
				w.Step()
			}
		}
	}
}

func TestStepTalliesReuseScratch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AidShare = 0.3
	r := rng.New(4)
	env, err := dcsp.NewMask(bitstring.Random(cfg.GenomeLen, r), bitstring.New(cfg.GenomeLen))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg, env, r)
	if err != nil {
		t.Fatal(err)
	}
	w.Step()
	allocs := testing.AllocsPerRun(20, func() {
		w.shareWithinLineages()
		w.DiversitySnapshot()
	})
	if allocs != 0 {
		t.Fatalf("aid and genotype tally allocated %v times per step", allocs)
	}
}
