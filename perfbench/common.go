package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// splitmix derives the i-th 64-bit value of a named stream from the
// workload seed, so every input is a pure function of --seed.
func splitmix(seed uint64, stream string, i uint64) uint64 {
	z := seed
	for _, c := range []byte(stream) {
		z = z*1099511628211 + uint64(c)
	}
	z += (i + 1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// catalogSeed is the k-th root seed of exp's fixed compute catalogue.
// Cold computes draw their seeds from it rather than from --seed: quick
// compute cost depends heavily on the seed (e29 takes 2–244ms, e14
// 40–136ms), so seed-drawn computes would make every run do a
// different amount of work. The workload seed still sets the schedule,
// the order and which catalogue entry each request gets.
func catalogSeed(exp string, k int) uint64 {
	return splitmix(0, "catalogue/"+exp, uint64(k)) >> 16
}

func newRand(seed uint64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(seed, stream, 0) >> 1)))
}

// runKey is one quick /v1/run request: an experiment at a root seed.
type runKey struct {
	id   string
	seed uint64
}

func (k runKey) path() string { return "/v1/run/" + k.id }

func (k runKey) body() []byte {
	return []byte(`{"seed":` + strconv.FormatUint(k.seed, 10) + `,"quick":true}`)
}

func (k runKey) digest() string { return requestDigest(k.id, k.seed) }

// wallClock matches the only bytes of a result that are not a function
// of its seed: e04 reports its policy-synthesis wall times as scalars
// named synthesisTime/…, so two computes of one e04 run differ there.
// That breaks the program's determinism contract and is left visible:
// sameResult compares with those values blanked and counts each time
// it had to (wallClockMasked, printed at the end). Every other byte must
// match, and cache hits, which replay stored bytes, must match exactly.
var wallClock = regexp.MustCompile(`("name":\s*"synthesisTime/[^"]*",\s*"value":\s*)"[^"]*"`)

// wallClockExperiments are the experiments wallClock applies to.
var wallClockExperiments = map[string]bool{"e04": true}

// wallClockBlank is what a wallClock match's value is replaced with.
var wallClockBlank = []byte(`$1"-"`)

var wallClockMasked atomic.Int64

// sameResult reports whether two computes of one run produced the same
// result, blanking e04's wall-clock scalars.
func sameResult(got, want []byte) bool {
	if bytes.Equal(got, want) {
		return true
	}
	if bytes.Equal(wallClock.ReplaceAll(got, wallClockBlank), wallClock.ReplaceAll(want, wallClockBlank)) {
		wallClockMasked.Add(1)
		return true
	}
	return false
}

// hitStatus reports whether an X-Resilience-Status header names a
// response served without computing: a cache hit or a coalesced wait.
func hitStatus(s string) bool {
	return strings.Contains(s, "cached") || strings.Contains(s, "coalesced")
}

// errWrongBytes marks a response whose body differs from its reference.
var errWrongBytes = errors.New("response body differs from its reference")

// hit sends k and checks that it was answered without computing and
// with exactly the reference bytes.
func (c *client) hit(k runKey, ref []byte) error {
	return c.exchange(k.path(), k.body(), k.digest(), func(r response) error {
		switch {
		case r.status != 200:
			return fmt.Errorf("%s seed %d: HTTP %d: %.200s", k.id, k.seed, r.status, r.body)
		case !hitStatus(r.runStatus):
			return fmt.Errorf("%s seed %d: status %q, want a cache hit", k.id, k.seed, r.runStatus)
		case !bytes.Equal(r.body, ref):
			return fmt.Errorf("%s seed %d: %w", k.id, k.seed, errWrongBytes)
		}
		return nil
	})
}

// run sends k and checks the status; the caller checks the bytes.
func (c *client) run(k runKey) (response, error) {
	resp, err := c.post(k.path(), k.body(), k.digest())
	if err != nil {
		return resp, err
	}
	if resp.status != 200 {
		return resp, fmt.Errorf("%s seed %d: HTTP %d: %.200s", k.id, k.seed, resp.status, resp.body)
	}
	return resp, nil
}

// warm requests every key once with nproc closed-loop workers — cold
// computes that fill the daemon's cache — and returns the bodies.
func warm(c *client, keys []runKey) (map[runKey][]byte, error) {
	bodies := make([][]byte, len(keys))
	var next int
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= len(keys) || firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				resp, err := c.run(keys[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("warm-up: %w", err)
				}
				bodies[i] = resp.body
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make(map[runKey][]byte, len(keys))
	for i, k := range keys {
		out[k] = bodies[i]
	}
	return out, nil
}

// fillSpans sends warm hits until the daemon's trace buffer is full, so
// timing sees a long-running daemon's steady state.
func fillSpans(d *daemon, c *client, keys []runKey) error {
	for i := 0; i%64 != 0 || !d.spansFull(); i++ {
		if i > 20*spanLimit {
			return errors.New("trace buffer never filled")
		}
		if _, err := c.run(keys[i%len(keys)]); err != nil {
			return fmt.Errorf("span fill: %w", err)
		}
	}
	return nil
}

// cliParity checks that the daemon's body for k equals what the CLI
// prints for the same run, so the daemon wiring copied here cannot
// drift from the shipped program.
func cliParity(cli string, k runKey, body []byte) error {
	if cli == "" {
		return nil // tests run without a built CLI
	}
	cmd := exec.Command(cli, k.id, "-quick", "-seed", strconv.FormatUint(k.seed, 10), "-format", "json", "-no-cache")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("CLI parity: %s: %w (%.200s)", cli, err, stderr.String())
	}
	if !sameResult(stdout.Bytes(), body) {
		return fmt.Errorf("CLI parity: %s seed %d: daemon body (%d bytes) differs from `resilience -format json` (%d bytes)",
			k.id, k.seed, len(body), stdout.Len())
	}
	return nil
}

// latencies collects per-request times in ms, rescaled to the reference
// VM's speed; a failed request counts as beyond every limit.
func latencies(res []outcome, kind int) []float64 {
	var xs []float64
	for _, o := range res {
		if o.kind != kind {
			continue
		}
		if o.err != nil {
			xs = append(xs, math.Inf(1))
		} else {
			xs = append(xs, ms(o.lat)/o.speed)
		}
	}
	return xs
}

// typicalMedian groups the kind's latencies by group and returns the
// geometric mean of the groups' medians: the median of a typical
// group, each group weighing the same. A failed request counts as
// beyond every limit.
func typicalMedian(res []outcome, kind int, group func(outcome) string) float64 {
	by := map[string][]outcome{}
	for _, o := range res {
		if o.kind == kind {
			by[group(o)] = append(by[group(o)], o)
		}
	}
	if len(by) == 0 {
		return 0
	}
	logSum := 0.0
	for _, g := range by {
		logSum += math.Log(median(latencies(g, kind)))
	}
	return math.Exp(logSum / float64(len(by)))
}

func countFailed(res []outcome) int {
	n := 0
	for _, o := range res {
		if o.err != nil {
			n++
		}
	}
	return n
}

// tally counts attempted and failed ops into rep, recording each
// failure's cause as a problem.
func tally(rep *report, res []outcome) {
	for _, o := range res {
		rep.attempted++
		if o.err != nil {
			rep.failed++
			rep.problemf("op at %v: %v", o.at.Round(time.Millisecond), o.err)
		}
	}
}

// timedQuantiles returns the median of xs and its tail quantile, the
// latter as the median over consecutive windows (in the order the
// operations were scheduled) that each leave ten samples beyond it.
// It notes the sample count, so emit can refuse a run too short to
// support the percentile.
func (r *report) timedQuantiles(name string, xs []float64, tail float64) (p50, pt float64) {
	r.tails = append(r.tails, tailCheck{name, len(xs), tail})
	return median(xs), windowed(xs, tailWindow(tail), tail)
}

// tailCheck records one reported tail percentile and its sample count.
type tailCheck struct {
	name string
	n    int
	q    float64
}

// setupRounds returns the number of set-up rounds a run makes: the
// workload's count untraced, setup_s being their median, and one per
// pass traced.
func (o options) setupRounds(untraced int, tr *tracer) int {
	switch {
	case o.rounds > 0:
		return o.rounds
	case tr != nil:
		return 1
	}
	return untraced
}

// Self-test corruptions (options.corrupt).
const (
	corruptReference = "reference"
	corruptExpected  = "expected"
)

// expected loads the expected outputs for a run and applies the
// corruptExpected self-test: k's expected result, or the campaign's
// first row when k is nil.
func (o options) expected(k *runKey) (*expectedDoc, error) {
	x, err := loadExpected()
	if err != nil {
		return nil, err
	}
	switch o.corrupt {
	case "", corruptReference:
	case corruptExpected:
		if k != nil {
			key := resultKey(k.id, k.seed)
			x.Results[key] = corruptDigest(x.Results[key])
		} else {
			x.Campaign.Rows[0].Digest = corruptDigest(x.Campaign.Rows[0].Digest)
		}
	default:
		return nil, fmt.Errorf("unknown --corrupt %q", o.corrupt)
	}
	return x, nil
}

// corruptDigest changes the first hex digit of a digest.
func corruptDigest(d string) string {
	switch {
	case d == "":
		return "0"
	case d[0] == '0':
		return "1" + d[1:]
	}
	return "0" + d[1:]
}

// corruptOne flips the last byte before the trailing newline of one
// reference, for the self-test of the output checks.
func corruptOne(ref []byte) {
	if n := len(bytes.TrimRight(ref, "\n")); n > 0 {
		ref[n-1] ^= 0x01
	}
}
