package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// maxLateP99 is the generator's validity limit: when the 99th
// percentile of how late requests left exceeds it, the generator, not
// the program, was the bottleneck and the run is refused. The generator
// shares the Go scheduler with the daemon, so while both processors run
// computes a send waits for the next preemption (up to ~20ms), as a
// request arriving from outside would wait for a processor; the limit
// sits above that.
const maxLateP99 = 50 * time.Millisecond

// op is one scheduled request of an open-loop run.
type op struct {
	at   time.Duration // intended send time, from the phase start
	kind int           // workload-defined request class
	key  int           // workload-defined request index
}

// outcome is what the generator measured for one op.
type outcome struct {
	op
	// late is how long after its intended time the request left.
	late time.Duration
	// lat runs from the intended send time to the last response byte,
	// so a stall also delays every request scheduled behind it.
	lat time.Duration
	err error
	// speed is the host's slowdown factor over the stretch the op ran
	// in (hostSpeed.over), or 1 outside openLoopStretches; lat is
	// divided by it where reported.
	speed float64
}

// evenly appends floor(d·rate) kind-tagged arrivals to ops, one in
// each 1/rate slot of d at a seeded uniform point within the slot; next
// fills each key. Slots keep the rate fixed: unlike Poisson arrivals,
// they queue work only when the program falls behind, not when the
// dice bunch arrivals together — which on a small, shared machine
// would make the tail latencies depend more on the draw than on the
// program. The jitter within each slot keeps two request classes whose
// rates divide evenly (300 hits and 5 suites a second) from meeting
// at one seed-chosen phase for the whole run, which would make a tail
// depend on that phase.
func evenly(ops []op, r *rand.Rand, rate float64, d time.Duration, kind int, next func() int) []op {
	gap := float64(time.Second) / rate
	for k := 0; k < int(float64(d)/gap); k++ {
		t := (float64(k) + r.Float64()) * gap
		ops = append(ops, op{at: time.Duration(t), kind: kind, key: next()})
	}
	return ops
}

// sortOps orders a merged schedule by send time (stable, so equal
// times keep their generation order).
func sortOps(ops []op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
}

// openLoop sends every op at its intended time, whether or not earlier
// requests have returned, and waits for all of them. Each request runs
// on its own goroutine: a true open loop needs one outstanding request
// per overlapping arrival.
func openLoop(ops []op, do func(op) error) ([]outcome, time.Time) {
	res := make([]outcome, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		intended := start.Add(ops[i].at)
		if d := time.Until(intended); d > 50*time.Microsecond {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, intended time.Time) {
			defer wg.Done()
			res[i].op = ops[i]
			res[i].speed = 1
			res[i].late = time.Since(intended)
			res[i].err = do(ops[i])
			res[i].lat = time.Since(intended)
		}(i, intended)
	}
	wg.Wait()
	return res, start
}

// stretch is how long an open-loop run goes between host-speed samples.
const stretch = 2500 * time.Millisecond

// openLoopStretches runs ops as openLoop does, a stretch of the
// schedule at a time: after each stretch it waits for every request of
// it to finish and samples the host's speed (hostSpeed) with the
// program idle; each outcome carries its stretch's factor. A twin stays
// in the stretch of the op it duplicates. It returns the outcomes in
// schedule order and the process CPU seconds the stretches took,
// calibration excluded, and records each stretch's peak resident
// memory in rss.
func openLoopStretches(ops []op, hs *hostSpeed, rss *peakRSS, do func(op) error) ([]outcome, float64) {
	var buckets [][]int
	for i, o := range ops {
		at := o.at
		if o.kind == opTwin {
			at -= mixedTwinGap
		}
		k := int(at / stretch)
		for len(buckets) <= k {
			buckets = append(buckets, nil)
		}
		buckets[k] = append(buckets[k], i)
	}
	var res []outcome
	var cpu float64
	hs.sample()
	for k, idx := range buckets {
		part := make([]op, len(idx))
		for j, i := range idx {
			part[j] = ops[i]
			part[j].at -= time.Duration(k) * stretch
		}
		cpu0 := cpuSeconds()
		rss.start()
		out, _ := openLoop(part, do)
		rss.stop()
		cpu += cpuSeconds() - cpu0
		hs.sample()
		f := hs.over(hs.last()-1, hs.last())
		for j, i := range idx {
			out[j].op = ops[i]
			out[j].speed = f
		}
		res = append(res, out...)
	}
	return res, cpu
}

// errLate marks a run the load generator could not keep on schedule.
var errLate = errors.New("load generator ran late")

// lateness checks the generator against maxLateP99 and returns the
// 99th percentile of its lateness.
func lateness(res []outcome) (time.Duration, error) {
	xs := make([]float64, len(res))
	for i, o := range res {
		xs[i] = float64(o.late)
	}
	p99 := time.Duration(quantile(xs, 0.99))
	if p99 > maxLateP99 {
		return p99, fmt.Errorf("%w (p99 %v > %v): run invalid", errLate, p99, maxLateP99)
	}
	return p99, nil
}

// client is the benchmark's HTTP client for one daemon.
type client struct {
	base string
	hc   *http.Client
	// digestHeader, when set, tags each request with its run's cache
	// digest so the traced handler wrapper can key its span.
	digestHeader bool
}

func newClient(base string, maxConns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		MaxConnsPerHost:     maxConns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed HTTP exchange.
type response struct {
	status int
	// runStatus is the X-Resilience-Status header (ok, cached.mem, …).
	runStatus string
	body      []byte
}

// post sends body to path and reads the whole response.
func (c *client) post(path string, body []byte, digest string) (response, error) {
	var out response
	err := c.exchange(path, body, digest, func(r response) error {
		out = r
		out.body = append([]byte(nil), r.body...)
		return nil
	})
	return out, err
}

// bodies recycles response buffers: the load generator shares the
// daemon's heap, so its garbage would add collections the program
// does not cause by itself.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// exchange sends body to path and hands the response to check, whose
// body bytes are valid only until check returns.
func (c *client) exchange(path string, body []byte, digest string, check func(response) error) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.digestHeader && digest != "" {
		req.Header.Set(digestHeaderName, digest)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return check(response{status: resp.StatusCode, runStatus: resp.Header.Get("X-Resilience-Status"), body: buf.Bytes()})
}
