package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"resilience/internal/obs"
)

// maxReconcileError bounds how far the traced root spans may drift
// from the program's own timing of the same work (see reconcile).
const maxReconcileError = 0.03

// probe snapshots the process and the program's own obs counters at
// the edges of a traced timed phase.
type probe struct {
	mark     int64 // tracer offset
	mem      runtime.MemStats
	cpu      float64
	counters map[string]int64
	qwait    obs.TimingCursor
	qwaitSum float64
	// latencySum is the program's own server.latency total in seconds.
	latencySum float64
	lastSpan   int // highest obs span ID so far
}

var probedCounters = []string{
	"server.coalesced", "server.shed",
	"runner.attempts", "runner.retries", "runner.timeouts",
}

func takeProbe(tr *tracer, o *obs.Observer) probe {
	p := probe{mark: tr.mark(), cpu: cpuSeconds(), counters: map[string]int64{}}
	runtime.ReadMemStats(&p.mem)
	for _, c := range probedCounters {
		p.counters[c] = o.Metrics.Counter(c).Value()
	}
	qw := o.Metrics.Timing("server.queue.wait")
	p.qwait = qw.Cursor()
	p.qwaitSum = qw.Snapshot().Sum
	p.latencySum = o.Metrics.Timing("server.latency").Snapshot().Sum
	for _, s := range o.Trace.Snapshot() {
		p.lastSpan = max(p.lastSpan, s.ID)
	}
	return p
}

// phase is what a workload knows about its traced timed phase beyond
// the spans: the probes at both ends and its own counts.
type phase struct {
	before, after probe
	obs           *obs.Observer
	// requests is the per-request denominator: completed requests, or
	// scenarios for the campaign.
	requests  int
	evictions int64
	// rootName names the root spans (server.handler for /v1/run, or
	// campaign.exec); shared says whether a child may belong to several
	// roots (coalescing).
	rootName string
	shared   bool
	// campaign outcome counts and load-generator figures, where the
	// workload has them.
	ok, degraded, failed int
	lateP99ms            float64
	sent, sendFailed     int
}

// layerMetrics turns a traced phase into every per-layer metric. The
// metrics a workload does not exercise read 0. It also returns an error
// when the layer sums do not reconcile with the root spans.
func layerMetrics(tr *tracer, ph phase) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer() {
		m[d.name] = 0
	}
	spans := tr.since(ph.before.mark)
	att := attribute(spans, ph.rootName, ph.shared)

	var roots, selfs []float64
	for i, r := range att.roots {
		roots = append(roots, float64(spans[r].dur()))
		selfs = append(selfs, float64(att.self[i]))
	}
	durs := map[string][]float64{}
	hits, gets := map[string]int{}, map[string]int{}
	sums := map[string]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		switch s.Kind {
		case kindTier:
			tier := strings.Split(s.Name, ".")[1]
			if strings.HasSuffix(s.Name, ".get") {
				gets[tier]++
				if s.Hit {
					hits[tier]++
				}
			}
		case kindCompute, kindStage:
			sums[s.Name] += float64(s.dur()) / 1e9
		}
	}
	q := func(name string, p, unit float64) float64 { return quantile(durs[name], p) / unit }
	if ph.rootName == "server.handler" {
		m["server.handler.p50_us"] = quantile(roots, 0.5) / 1e3
		m["server.handler.p99_us"] = quantile(roots, 0.99) / 1e3
		m["server.self.p50_us"] = quantile(selfs, 0.5) / 1e3
	} else {
		m["campaign.exec.p50_ms"] = quantile(roots, 0.5) / 1e6
		m["campaign.exec.p99_ms"] = quantile(roots, 0.99) / 1e6
	}
	if n := float64(ph.requests); n > 0 {
		m["proc.allocs_per_req"] = float64(ph.after.mem.Mallocs-ph.before.mem.Mallocs) / n
		m["proc.alloc_bytes_per_req"] = float64(ph.after.mem.TotalAlloc-ph.before.mem.TotalAlloc) / n
		m["proc.cpu_us_per_req"] = (ph.after.cpu - ph.before.cpu) * 1e6 / n
	}
	m["proc.gc_cycles"] = float64(ph.after.mem.NumGC - ph.before.mem.NumGC)
	qwait := ph.obs.Metrics.Timing("server.queue.wait")
	p99, _ := qwait.QuantileSince(ph.before.qwait, 0.99)
	m["server.queue_wait.p99_ms"] = p99 * 1e3
	m["server.queue_wait.sum_s"] = ph.after.qwaitSum - ph.before.qwaitSum
	delta := func(c string) float64 { return float64(ph.after.counters[c] - ph.before.counters[c]) }
	m["server.coalesced"] = delta("server.coalesced")
	m["server.shed"] = delta("server.shed")
	m["runner.attempts"] = delta("runner.attempts")
	m["runner.retries"] = delta("runner.retries")
	m["runner.timeouts"] = delta("runner.timeouts")
	for _, tier := range []string{"mem", "fs"} {
		m["rescache."+tier+".get.p50_us"] = q("rescache."+tier+".get", 0.5, 1e3)
		m["rescache."+tier+".get.p99_us"] = q("rescache."+tier+".get", 0.99, 1e3)
		if gets[tier] > 0 {
			m["rescache."+tier+".hit_ratio"] = float64(hits[tier]) / float64(gets[tier])
		}
	}
	m["rescache.mem.puts"] = float64(len(durs["rescache.mem.put"]))
	m["rescache.mem.evictions"] = float64(ph.evictions)
	m["rescache.fs.put.p50_ms"] = q("rescache.fs.put", 0.5, 1e6)
	m["rescache.fs.put.p99_ms"] = q("rescache.fs.put", 0.99, 1e6)
	m["runner.run.p50_ms"] = runnerRunP50(ph)
	for _, id := range experimentIDs() {
		v := sums["experiments."+id]
		m["experiments."+id+".compute_s"] = v
		m["experiments.compute_s"] += v
	}
	for _, e := range stagedHeavy {
		for _, st := range e.stages {
			m[stageMetric(e.id, st)] = sums[stageSpanName(e.id, st)]
		}
	}
	m["campaign.ok"] = float64(ph.ok)
	m["campaign.degraded"] = float64(ph.degraded)
	m["campaign.failed"] = float64(ph.failed)
	m["bench.late.p99_ms"] = ph.lateP99ms
	m["bench.sent"] = float64(ph.sent)
	m["bench.failed"] = float64(ph.sendFailed)
	m["bench.spans"] = float64(len(spans))
	var err error
	m["bench.reconcile.ratio"], err = reconcile(spans, ph)
	return m, err
}

// reconcile checks the traced run against a measurement it did not
// make: the summed durations of its root spans against the program's
// own timing of the same work over the phase — the server.latency
// total for the daemon's /v1 work requests, or the runner's "suite"
// spans for campaign scenarios. The wrappers enclose the program's
// timers, so the ratio sits just above 1; a dropped or misattributed
// root span, or a seam that stopped seeing the work, moves it.
func reconcile(spans []span, ph phase) (float64, error) {
	var traced float64
	for _, s := range spans {
		if s.Kind == kindExec || s.Kind == kindHandler && isWorkSpan(s.Name) {
			traced += float64(s.dur()) / 1e9
		}
	}
	var program float64
	if ph.rootName == "server.handler" {
		program = ph.after.latencySum - ph.before.latencySum
	} else {
		for _, s := range ph.obs.Trace.Snapshot() {
			if s.Kind == "suite" && s.ID > ph.before.lastSpan && s.DurationUs >= 0 {
				program += float64(s.DurationUs) / 1e6
			}
		}
	}
	if program == 0 && traced == 0 {
		return 1, nil
	}
	ratio := traced / program
	if math.IsInf(ratio, 0) || math.IsNaN(ratio) || math.Abs(ratio-1) > maxReconcileError {
		return ratio, fmt.Errorf("traced %s spans sum to %.4f of the program's own timing of the same work (%.6fs vs %.6fs; limit ±%.0f%%)",
			ph.rootName, ratio, traced, program, maxReconcileError*100)
	}
	return ratio, nil
}

// isWorkSpan reports whether a handler span timed a request the
// program counts as work (server.latency): /v1/run, /v1/suite or
// /v1/campaign.
func isWorkSpan(name string) bool {
	return name == "server.handler" || name == "server.handler/v1/suite" || name == "server.handler/v1/campaign"
}

// runnerRunP50 is the median runner.Run duration in the phase, read
// from the "suite" spans the runner itself records in the program's
// tracer (which keeps the most recent 4096 spans).
func runnerRunP50(ph phase) float64 {
	var xs []float64
	for _, s := range ph.obs.Trace.Snapshot() {
		if s.Kind == "suite" && s.ID > ph.before.lastSpan && s.DurationUs > 0 {
			xs = append(xs, float64(s.DurationUs)/1e3)
		}
	}
	return median(xs)
}
