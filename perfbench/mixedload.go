package main

import (
	"fmt"
	"sync"
	"time"
)

// mixed-load: open-loop warm hits on a small memory-resident hot set
// beside cold computes, both at fixed rates (paced to the host's speed,
// see hostSpeed.pace), every experiment in turn at catalogue seeds not
// yet used in the run; a few are sent twice within a millisecond so the
// coalescer fires. The compute rate keeps the default pool (nproc = 2
// slots) about half busy: quick computes average ~17ms alone on the
// 2-core reference VM and stretch under contention, so 35/s keeps
// about one slot busy.
const (
	mixedHot         = 16
	mixedHitRate     = 250.0
	mixedComputeRate = 35.0
	mixedTwinShare   = 0.05
	mixedTwinGap     = time.Millisecond
	// mixedBlocks is how many catalogue seeds per experiment
	// expected.json covers for cold computes: enough for 55s at the
	// compute rate times mixedMaxPace.
	mixedBlocks = 72
	// mixedSetupRounds: one set-up takes about half a second and moves
	// by a quarter from round to round with which warm-up computes share
	// the processors.
	mixedSetupRounds = 7
	// mixedMaxPace caps how far a host faster than the reference VM
	// raises the rates (hostSpeed.pace).
	mixedMaxPace = 1.15
)

// Open-loop request classes.
const (
	opHit = iota
	opCompute
	opTwin
)

// hotSeed is the s-th root seed the hot set draws from. The hot set is
// fixed, like the compute catalogue, so its expected results can be
// committed (expected.json); the workload seed sets the request
// schedule.
func hotSeed(s int) uint64 { return splitmix(0, "hot-seed", uint64(s)) >> 16 }

// hotKeys is the hot set: mixedHot keys drawn in a fixed order from
// every experiment at 8 root seeds.
func hotKeys() []runKey {
	var keys []runKey
	for s := 0; s < 8; s++ {
		for _, id := range experimentIDs() {
			keys = append(keys, runKey{id, hotSeed(s)})
		}
	}
	r := newRand(0, "hot-order")
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys[:mixedHot]
}

func runMixedLoad(o options, tr *tracer) (*report, error) {
	ids := experimentIDs()
	hot := hotKeys()
	rep := &report{metrics: map[string]float64{}}
	x, err := o.expected(&hot[0])
	if err != nil {
		return nil, err
	}

	rounds := o.setupRounds(mixedSetupRounds, tr)
	var d *daemon
	var refs map[runKey][]byte
	var setups []float64
	for round := 0; round < rounds; round++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if round == 0 && tr == nil {
			start = processStart
		}
		var err error
		d, err = bootDaemon(o.workDir, tr)
		if err != nil {
			return nil, err
		}
		c := newClient(d.url, 0)
		c.digestHeader = tr != nil
		bodies, err := warm(c, hot)
		if err == nil {
			err = fillSpans(d, c, hot)
		}
		c.close()
		if err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		x.checkAll(rep, fmt.Sprintf("set-up round %d", round), bodies)
		refs = bodies
	}
	defer d.stop()
	if o.corrupt == corruptReference {
		corruptOne(refs[hot[0]])
	}

	// The schedule: hits over the hot set; computes in blocks of every
	// experiment once, each block freshly shuffled, each compute at the
	// next seed of its experiment's catalogue; twins. Whole blocks keep
	// the compute work the same from seed to seed, and reshuffling every
	// block keeps how often long computes overlap steady.
	total := time.Duration(o.seconds * float64(time.Second))
	r := newRand(o.seed, "mixed-schedule")
	var computes []runKey
	var block []int
	nextCompute := func() int {
		i := len(computes)
		if i%len(ids) == 0 {
			block = r.Perm(len(ids))
		}
		id := ids[block[i%len(ids)]]
		computes = append(computes, runKey{id, catalogSeed(id, i/len(ids))})
		return i
	}
	hs, err := newHostSpeed(o.workDir)
	if err != nil {
		return nil, err
	}
	pace := hs.pace(mixedMaxPace)
	ops := evenly(nil, r, mixedHitRate*pace, total, opHit, func() int { return r.Intn(len(hot)) })
	ops = evenly(ops, r, mixedComputeRate*pace, total, opCompute, nextCompute)
	if len(computes) > mixedBlocks*len(ids) {
		return nil, fmt.Errorf("%d computes need more than the %d catalogue seeds per experiment expected.json covers; run shorter", len(computes), mixedBlocks)
	}
	for _, op := range ops {
		if op.kind == opCompute && r.Float64() < mixedTwinShare {
			ops = append(ops, twinOf(op))
		}
	}
	sortOps(ops)

	c := newClient(d.url, 0)
	c.digestHeader = tr != nil
	defer c.close()
	var mu sync.Mutex
	bodies := map[int][][]byte{} // compute index → bodies (twins give two)
	evictions0 := d.mem.Evictions()
	var ph phase
	if tr != nil {
		ph.before = takeProbe(tr, d.obs)
	}
	var rss peakRSS
	res, cpu := openLoopStretches(ops, hs, &rss, func(op op) error {
		if op.kind == opHit {
			k := hot[op.key]
			return c.hit(k, refs[k])
		}
		resp, err := c.run(computes[op.key])
		if err != nil {
			return err
		}
		mu.Lock()
		bodies[op.key] = append(bodies[op.key], resp.body)
		mu.Unlock()
		return nil
	})
	if tr != nil {
		ph.after = takeProbe(tr, d.obs)
	}
	late, lateErr := lateness(res)
	tally(rep, res)
	good := len(res) - countFailed(res)

	// Off the clock: every cold compute (twins too) gave its expected
	// result, and one seeded sample matches the CLI.
	for i, bs := range bodies {
		for _, b := range bs {
			if err := x.check(computes[i], b); err != nil {
				rep.problemf("cold compute: %v", err)
			}
		}
	}
	if len(bodies) > 0 {
		i := newRand(o.seed, "mixed-verify").Intn(len(computes))
		for ; len(bodies[i]) == 0; i = (i + 1) % len(computes) {
		}
		if err := cliParity(o.cli, computes[i], bodies[i][0]); err != nil {
			rep.problemf("%v", err)
		}
	}

	m := rep.metrics
	m["setup_s"] = median(setups) / hs.wallFactor()
	fmt.Fprintf(o.out, "%s: set-up rounds %.3fs\n", o.workload, setups)
	m["p50_ms"], m["p99_ms"] = rep.timedQuantiles("hits", latencies(res, opHit), 0.99)
	_, m["heavy_p90_ms"] = rep.timedQuantiles("computes", latencies(res, opCompute), 0.90)
	// Quick compute costs cluster by experiment with wide gaps between
	// the clusters, and the pooled median sat in one: a few computes
	// queueing a little longer moved it from one cluster to the next.
	// Each experiment's median moves only as fast as its computes do,
	// and averaging them over all 31 leaves no single one to jump.
	m["heavy_p50_ms"] = typicalMedian(res, opCompute, func(o outcome) string { return computes[o.key].id })

	// Requests answered per second of process CPU, rescaled by the
	// whole run's CPU factor: the offered rate is fixed, so this is the
	// inverse of what serving them cost.
	m["ops_per_s"] = float64(good) / cpu * hs.cpuFactor()
	m["max_rss_mb"] = median(rss)
	rep.hostNote(o, hs)
	if lateErr != nil {
		return nil, lateErr
	}
	if tr != nil {
		ph.obs = d.obs
		ph.requests = len(res)
		ph.evictions = d.mem.Evictions() - evictions0
		ph.rootName = "server.handler"
		ph.shared = true
		ph.lateP99ms = ms(late)
		ph.sent = len(res)
		ph.sendFailed = countFailed(res)
		lm, err := layerMetrics(tr, ph)
		if err != nil {
			rep.problemf("%v", err)
		}
		for k, v := range lm {
			m[k] = v
		}
	}
	fmt.Fprintf(o.out, "mixed-load: %d ops (%d computes), generator p99 lateness %v\n", len(res), len(computes), late)
	return rep, nil
}

// twinOf is a duplicate of a compute sent mixedTwinGap later.
func twinOf(o op) op {
	o.at += mixedTwinGap
	o.kind = opTwin
	return o
}
