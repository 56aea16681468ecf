package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"resilience/internal/campaign"
	"resilience/internal/experiments"
	"resilience/internal/obs"
	"resilience/internal/rescache"
	"resilience/internal/rescache/fsstore"
	"resilience/internal/rescache/memstore"
)

// campaign-sweep: campaign.Run through campaign.LocalExec, in process,
// no HTTP. Every experiment × campaignSeeds seeds × {clean, a retrying
// plan whose first attempt fails at the worker seam}, quick, at Jobs =
// nproc, each sweep on a fresh cache directory, repeated until the
// time is up. The seeds are fixed (see catalogSeed for why) and the
// expected rows and summary are in expected.json; --seed sets each
// sweep's order of the experiments, and with it which scenarios share
// the processors. A fresh order per sweep makes a run average over many
// pairings of long scenarios instead of depending on one.
const (
	campaignSeeds    = 2
	campaignSeedFrom = 1000
	// campaignMemEntries is the CLI's default -cache-mem-entries.
	campaignMemEntries = 1024
	// campaignSetupRounds is higher than mixedSetupRounds because one
	// in-process set-up is a short, noisy measurement.
	campaignSetupRounds = 15
)

func campaignSpec(seed uint64, sweep int) []byte {
	ids := experimentIDs()
	newRand(seed, "campaign-order/"+strconv.Itoa(sweep)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	order, _ := json.Marshal(ids)
	return []byte(fmt.Sprintf(`{
  "name": "perfbench-sweep",
  "experiments": %s,
  "seeds": {"from": %d, "count": %d},
  "plans": [
    null,
    {"name": "retry", "retries": 1, "faults": [
      {"experiment": "*", "seam": "worker", "kind": "error", "attempt": 1, "message": "injected worker fault"}
    ]}
  ]
}`, order, campaignSeedFrom, campaignSeeds))
}

// sweepCache is one sweep's fresh cache: the CLI's tiers (memory LRU
// over a filesystem directory of its own).
type sweepCache struct {
	cache *rescache.Cache
	mem   *memstore.Store
	dir   string
}

func openSweepCache(workDir string, tr *tracer, observer *obs.Observer) (*sweepCache, error) {
	dir, err := os.MkdirTemp(workDir, "sweep-")
	if err != nil {
		return nil, err
	}
	mem, err := memstore.New(campaignMemEntries, 0)
	if err != nil {
		return nil, err
	}
	fsTier, err := fsstore.Open(dir)
	if err != nil {
		return nil, err
	}
	c := rescache.New(rescache.Tiered(tr.wrapStore(mem, "mem"), tr.wrapStore(fsTier, "fs")))
	c.SetObserver(observer)
	return &sweepCache{cache: c, mem: mem, dir: dir}, nil
}

// close releases the cache and deletes its directory.
func (s *sweepCache) close() error {
	return errors.Join(s.cache.Close(), os.RemoveAll(s.dir))
}

// expandSweep parses and expands the spec of one sweep.
func expandSweep(seed uint64, sweep int, reg []experiments.Experiment) ([]campaign.Scenario, campaign.RunConfig, error) {
	sp, err := campaign.ParseSpec(campaignSpec(seed, sweep))
	if err != nil {
		return nil, campaign.RunConfig{}, err
	}
	scenarios, err := sp.Expand(reg)
	if err != nil {
		return nil, campaign.RunConfig{}, err
	}
	return scenarios, campaign.RunConfig{Name: sp.Name, DeadlineAttempts: sp.DeadlineAttempts, Jobs: nproc()}, nil
}

func runCampaignSweep(o options, tr *tracer) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	reg := experiments.All()
	if tr != nil {
		reg = tr.wrapRegistry(reg)
	}

	x, err := o.expected(nil)
	if err != nil {
		return nil, err
	}

	// Set-up is what `resilience campaign` does before its first
	// scenario: parse and expand the spec and open a fresh cache. The
	// first round is timed from process start, as on the other
	// workloads. Every sweep repeats that set-up for its own order, and
	// setup_s is the median over these rounds and those, so that it
	// samples the whole run rather than its first milliseconds. Deleting
	// a cache directory is the benchmark's clean-up, off the clock. Each
	// round is rescaled by the host-speed sample nearest to it.
	var initial, setups []float64
	for round := 0; round < o.setupRounds(campaignSetupRounds, tr); round++ {
		start := time.Now()
		if round == 0 && tr == nil {
			start = processStart
		}
		if _, _, err := expandSweep(o.seed, 0, reg); err != nil {
			return nil, err
		}
		sc, err := openSweepCache(o.workDir, nil, obs.New())
		if err != nil {
			return nil, err
		}
		initial = append(initial, time.Since(start).Seconds())
		if err := sc.close(); err != nil {
			return nil, err
		}
	}

	observer := obs.New()
	var ph phase
	if tr != nil {
		ph.before = takeProbe(tr, observer)
	}
	var all, planned, rates []float64
	var rss peakRSS
	var busy time.Duration
	sweeps := 0
	total := time.Duration(o.seconds * float64(time.Second))
	hs, err := newHostSpeed(o.workDir)
	if err != nil {
		return nil, err
	}
	hs.sample()
	for _, t := range initial {
		setups = append(setups, t/hs.at(0))
	}
	for busy < total {
		start := time.Now()
		scenarios, cfg, err := expandSweep(o.seed, sweeps, reg)
		if err != nil {
			return nil, err
		}
		sc, err := openSweepCache(o.workDir, tr, observer)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			setups = append(setups, time.Since(start).Seconds()/hs.at(hs.last()))
		}
		ev0 := sc.mem.Evictions()
		times := make([]scenarioTime, len(scenarios))
		exec := timedExec(campaign.LocalExec(sc.cache, observer), tr, times)
		var rows []campaign.Row
		before := hs.last()
		rss.start()
		start = time.Now()
		sum := campaign.Run(context.Background(), scenarios, cfg, exec, func(r campaign.Row) { rows = append(rows, r) })
		took := time.Since(start)
		rss.stop()
		busy += took
		hs.sample()
		f := hs.over(before, hs.last())
		rates = append(rates, float64(len(scenarios))/took.Seconds()*f)
		ph.evictions += sc.mem.Evictions() - ev0
		if err := sc.close(); err != nil {
			return nil, err
		}
		sweeps++
		rep.attempted += len(scenarios)
		ph.ok += sum.OK
		ph.degraded += sum.Degraded
		ph.failed += sum.Failed
		if n := sum.Failed + sum.Errors + sum.Shed; n > 0 {
			rep.failed += n
		}
		if err := x.checkCampaign(rows, sum); err != nil {
			rep.problemf("sweep %d: %v", sweeps, err)
		}
		for _, t := range times {
			all = append(all, ms(t.d)/f)
			if t.planned {
				planned = append(planned, ms(t.d)/f)
			}
		}
	}
	if tr != nil {
		ph.after = takeProbe(tr, observer)
	}

	m := rep.metrics
	m["setup_s"] = median(setups)
	fmt.Fprintf(o.out, "%s: set-up rounds %.6fs\n", o.workload, sortedCopy(setups))
	m["p50_ms"], m["p99_ms"] = rep.timedQuantiles("scenarios", all, 0.99)
	m["heavy_p50_ms"], m["heavy_p90_ms"] = rep.timedQuantiles("recovering scenarios", planned, 0.90)
	m["ops_per_s"] = median(rates) // per sweep, so one disturbed sweep does not move it
	m["max_rss_mb"] = median(rss)
	rep.hostNote(o, hs)
	if tr != nil {
		ph.obs = observer
		ph.requests = len(all)
		ph.rootName = "campaign.exec"
		lm, err := layerMetrics(tr, ph)
		if err != nil {
			rep.problemf("%v", err)
		}
		for k, v := range lm {
			m[k] = v
		}
	}
	fmt.Fprintf(o.out, "campaign-sweep: %d sweeps, %d scenarios in %v\n", sweeps, len(all), busy.Round(time.Millisecond))
	return rep, nil
}
