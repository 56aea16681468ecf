package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"

	"resilience/internal/experiments"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names; metrics_test.go keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics an untraced run reports. Every workload
// reports every one; what the "light" and "heavy" operations are
// depends on the workload (see issueNames and PLAN.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heavy_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// printedOnly are timings an untraced run prints above its result line
// but does not report: on the shared 2-vCPU reference VM they moved by
// a quarter or more between runs of the same code, and several-fold
// for mixed-load whenever the host's neighbours were busy, so no bound
// could tell a regression from the host.
var printedOnly = []metricDef{
	{"p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// issueNames maps each workload's generic metric names to the
// operation they time, named as in the benchmark plan.
var issueNames = map[string]map[string]string{
	"mixed-load": {
		"p50_ms": "hit_p50_ms", "p99_ms": "hit_p99_ms",
		"heavy_p50_ms": "compute_p50_ms of a typical experiment", "heavy_p90_ms": "compute_p90_ms",
		"ops_per_s": "answered requests per CPU-second",
	},
	"campaign-sweep": {
		"p50_ms": "scenario_p50_ms", "p99_ms": "scenario_p99_ms",
		"heavy_p50_ms": "recovering_p50_ms", "heavy_p90_ms": "recovering_p90_ms",
		"ops_per_s": "scenarios_per_s",
	},
}

// stagedHeavy lists, per staged experiment that takes more than 5% of
// the quick suite's compute, its named stages. Monolithic experiments
// above 5% (e11, e12, e14, e30) run one unnamed stage, which their
// experiments.<id>.compute_s already covers.
var stagedHeavy = []struct {
	id     string
	stages []string
}{
	{"e27", []string{
		"generate", "graph/generate",
		"degree-cascade/tol0.10", "degree-cascade/tol0.30", "degree-cascade/tol0.45",
		"degree-cascade/tol0.55", "degree-cascade/tol1.00",
		"betweenness-cascade/tol0.10", "betweenness-cascade/tol0.50", "betweenness-cascade/tol2.00",
		"report",
	}},
	{"e28", []string{
		"aid/mild/0.0", "aid/mild/0.3", "aid/mild/0.6",
		"aid/overwhelming/0.0", "aid/overwhelming/0.3", "aid/overwhelming/0.6",
		"report",
	}},
	{"e31", []string{"may/n4", "may/n8", "may/n16", "may/n22", "may/n32", "may/n64", "report"}},
}

// stageMetric is the per-layer metric name of one engine stage. Metric
// names may not contain '/', so stage path separators become '-'.
func stageMetric(id, stage string) string {
	return "engine.stage." + id + "." + strings.ReplaceAll(stage, "/", "-") + "_s"
}

// experimentIDs are the registered experiments in ID order.
func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// perLayer lists every metric a traced run reports, in BENCHMARK.json
// order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"server.handler.p50_us", "us"},
		{"server.handler.p99_us", "us"},
		{"server.self.p50_us", "us"},
		{"proc.allocs_per_req", "count"},
		{"proc.alloc_bytes_per_req", "B"},
		{"proc.cpu_us_per_req", "us"},
		{"proc.gc_cycles", "count"},
		{"server.queue_wait.p99_ms", "ms"},
		{"server.queue_wait.sum_s", "s"},
		{"server.coalesced", "count"},
		{"server.shed", "count"},
		{"rescache.mem.get.p50_us", "us"},
		{"rescache.mem.get.p99_us", "us"},
		{"rescache.mem.hit_ratio", "ratio"},
		{"rescache.mem.puts", "count"},
		{"rescache.mem.evictions", "count"},
		{"rescache.fs.get.p50_us", "us"},
		{"rescache.fs.get.p99_us", "us"},
		{"rescache.fs.hit_ratio", "ratio"},
		{"rescache.fs.put.p50_ms", "ms"},
		{"rescache.fs.put.p99_ms", "ms"},
		{"runner.attempts", "count"},
		{"runner.retries", "count"},
		{"runner.timeouts", "count"},
		{"runner.run.p50_ms", "ms"},
		{"experiments.compute_s", "s"},
	}
	for _, id := range experimentIDs() {
		defs = append(defs, metricDef{"experiments." + id + ".compute_s", "s"})
	}
	for _, e := range stagedHeavy {
		for _, st := range e.stages {
			defs = append(defs, metricDef{stageMetric(e.id, st), "s"})
		}
	}
	defs = append(defs,
		metricDef{"campaign.exec.p50_ms", "ms"},
		metricDef{"campaign.exec.p99_ms", "ms"},
		metricDef{"campaign.ok", "count"},
		metricDef{"campaign.degraded", "count"},
		metricDef{"campaign.failed", "count"},
		metricDef{"bench.late.p99_ms", "ms"},
		metricDef{"bench.sent", "count"},
		metricDef{"bench.failed", "count"},
		metricDef{"bench.reconcile.ratio", "ratio"},
		metricDef{"bench.spans", "count"},
		metricDef{"bench.overhead.p50_ms", "ms"},
		metricDef{"bench.overhead.ops_per_s", "1/s"},
	)
	return defs
}

// peakRSS samples the process's peak resident memory per stretch of a
// run. A run's single lifetime peak moved by a sixth from run to run,
// as the garbage collector's timing fell; the median over stretches
// does not depend on one collection.
type peakRSS []float64

// start clears the kernel's high-water mark for this process.
func (p *peakRSS) start() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stop records the high-water mark since start, in MB.
func (p *peakRSS) stop() {
	*p = append(*p, rssHighWaterMB())
}

// rssHighWaterMB is VmHWM from /proc/self/status, or the lifetime peak
// from getrusage where that file is missing.
func rssHighWaterMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
