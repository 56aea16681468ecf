package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"resilience/internal/campaign"
	"resilience/internal/engine"
	"resilience/internal/experiments"
	"resilience/internal/obs"
	"resilience/internal/rescache"
	"resilience/internal/rng"
	"resilience/internal/runner"
)

// digestHeaderName carries a request's cache digest from the load
// generator to the traced handler wrapper (traced runs only).
const digestHeaderName = "X-Bench-Digest"

// Span kinds.
const (
	kindHandler = "handler" // server.Server.Handler(), one /v1 request
	kindExec    = "exec"    // campaign.ExecFunc, one scenario
	kindTier    = "tier"    // rescache.Store Get/Put of one tier
	kindCompute = "compute" // Experiment.Run (or its whole stage list)
	kindStage   = "stage"   // one engine Stage.Fn
)

// span is one timed call at a seam. Spans of one request share its
// run's cache digest: tier and root spans carry it in Key, compute and
// stage spans in Run (the plan-less digest, which is all an experiment
// body can know; it equals Key for every plan-less request).
type span struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Key   string `json:"key,omitempty"`
	Run   string `json:"run,omitempty"`
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
	// Parent is the 1-based index of the causing span, 0 for a root;
	// attribution fills it in after the run.
	Parent int  `json:"parent,omitempty"`
	Hit    bool `json:"hit,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(name, kind, key, run string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Kind: kind, Key: key, Run: run, Start: start})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, hit bool) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end
	t.spans[i].Hit = hit
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the completed spans that started at or after
// from (a tracer offset, see mark).
func (t *tracer) since(from int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) mark() int64 { return t.now() }

// writeFile writes every span, one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runIdentity is the plan-less cache digest of one experiment run,
// computed from what an experiment body sees (its derived seed).
func runIdentity(id string, cfg experiments.Config) string {
	return rescache.Key{ID: id, Seed: cfg.Seed, Quick: cfg.Quick, Schema: engine.SchemaVersion}.Digest()
}

// requestDigest is the cache digest of a plan-less quick run request.
func requestDigest(id string, seed uint64) string {
	return runner.CacheKey(runner.Options{Seed: seed, Quick: true}, experiments.Experiment{ID: id}).Digest()
}

// wrapHandler times every request the daemon serves.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "server.handler"
		if !strings.HasPrefix(r.URL.Path, "/v1/run/") {
			name += r.URL.Path
		}
		d := r.Header.Get(digestHeaderName)
		i := t.begin(name, kindHandler, d, d)
		h.ServeHTTP(w, r)
		t.end(i, false)
	})
}

// tracedStore decorates one cache tier. It forwards the optional
// interfaces rescache probes for, so the wiring behaves as without it.
type tracedStore struct {
	inner rescache.Store
	tier  string
	t     *tracer
}

func (t *tracer) wrapStore(s rescache.Store, tier string) rescache.Store {
	if t == nil {
		return s
	}
	return &tracedStore{inner: s, tier: tier, t: t}
}

func (s *tracedStore) Get(digest string) ([]byte, string, error) {
	i := s.t.begin("rescache."+s.tier+".get", kindTier, digest, "")
	data, tier, err := s.inner.Get(digest)
	s.t.end(i, err == nil)
	return data, tier, err
}

func (s *tracedStore) Put(digest string, data []byte) error {
	i := s.t.begin("rescache."+s.tier+".put", kindTier, digest, "")
	err := s.inner.Put(digest, data)
	s.t.end(i, false)
	return err
}

func (s *tracedStore) Stats() []rescache.TierStats { return s.inner.Stats() }
func (s *tracedStore) Close() error                { return s.inner.Close() }
func (s *tracedStore) String() string              { return fmt.Sprint(s.inner) }

func (s *tracedStore) Check() error {
	if c, ok := s.inner.(rescache.Checker); ok {
		return c.Check()
	}
	return nil
}

func (s *tracedStore) SetObserver(o *obs.Observer) {
	if ob, ok := s.inner.(rescache.Observable); ok {
		ob.SetObserver(o)
	}
}

// wrapRegistry returns reg with every experiment body timed: one
// compute span per Experiment.Run call (or per stage list, from the
// StageBuilder call to the end of the last stage) and one span per
// Stage.Fn. IDs, order and behaviour are unchanged, so cache keys and
// outputs are too.
func (t *tracer) wrapRegistry(reg []experiments.Experiment) []experiments.Experiment {
	if t == nil {
		return nil
	}
	out := make([]experiments.Experiment, len(reg))
	for i, e := range reg {
		id := e.ID
		switch {
		case e.Run != nil:
			inner := e.Run
			e.Run = func(rec *experiments.Recorder, cfg experiments.Config) error {
				ci := t.begin("experiments."+id, kindCompute, "", runIdentity(id, cfg))
				defer t.end(ci, false)
				return inner(rec, cfg)
			}
		case e.Stages != nil:
			e.Stages = t.wrapStages(id, e.Stages)
		}
		out[i] = e
	}
	return out
}

func (t *tracer) wrapStages(id string, inner experiments.StageBuilder) experiments.StageBuilder {
	return func(rec *experiments.Recorder, cfg experiments.Config) []engine.Stage {
		run := runIdentity(id, cfg)
		ci := t.begin("experiments."+id, kindCompute, "", run)
		stages := inner(rec, cfg)
		last := -1
		for j := range stages {
			if stages[j].Fn != nil {
				last = j
			}
		}
		if last < 0 {
			t.end(ci, false)
			return stages
		}
		for j := range stages {
			fn := stages[j].Fn
			if fn == nil {
				continue
			}
			name := stageSpanName(id, stages[j].Name)
			isLast := j == last
			stages[j].Fn = func(r *rng.Source) error {
				si := t.begin(name, kindStage, "", run)
				err := fn(r)
				t.end(si, false)
				// A stage that fails ends the body; one cut off at a seam
				// leaves the compute span open, and analysis drops it.
				if err != nil || isLast {
					t.end(ci, false)
				}
				return err
			}
		}
		return stages
	}
}

func stageSpanName(id, stage string) string { return "engine.stage." + id + "." + stage }

// scenarioTime is the measured duration of one campaign scenario.
type scenarioTime struct {
	planned bool
	d       time.Duration
}

// timedExec wraps a campaign executor to time every scenario — the
// latency the campaign's caller sees per scenario — and, when traced,
// to record it as a root span keyed by the scenario's cache digest.
func timedExec(exec campaign.ExecFunc, t *tracer, times []scenarioTime) campaign.ExecFunc {
	return func(ctx context.Context, sc campaign.Scenario) (runner.Outcome, error) {
		si := -1
		if t != nil {
			opts := runner.Options{Seed: sc.Seed, Quick: sc.Quick, PlanHash: sc.PlanHash}
			key := runner.CacheKey(opts, sc.Experiment).Digest()
			opts.PlanHash = ""
			si = t.begin("campaign.exec", kindExec, key, runner.CacheKey(opts, sc.Experiment).Digest())
		}
		start := time.Now()
		out, err := exec(ctx, sc)
		times[sc.Index] = scenarioTime{planned: sc.Plan != nil, d: time.Since(start)}
		if si >= 0 {
			t.end(si, false)
		}
		return out, err
	}
}

// interval is a half-open [s, e) span of tracer time.
type interval struct{ s, e int64 }

// covered returns how much of p the union of kids covers: each kid is
// clipped to p, overlapping kids are merged, so time two children share
// (a coalesced compute seen by several waiters, or nested children) is
// counted once.
func covered(p interval, kids []interval) int64 {
	clipped := make([]interval, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.s, p.s), min(k.e, p.e)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].s < clipped[j].s })
	var total int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.s <= cur.e:
			cur.e = max(cur.e, c.e)
		default:
			total += cur.e - cur.s
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.e - cur.s
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(p interval, kids []interval) int64 {
	return (p.e - p.s) - covered(p, kids)
}

// attribution is the per-root breakdown of a traced window.
type attribution struct {
	roots []int // indexes of root spans
	// self[i] is the self time of roots[i]; cover[i] maps each child
	// layer ("tier", "compute") to the time it covers within the root.
	self  []int64
	cover []map[string]int64
}

// attribute links each tier and compute span to the root span(s) of
// its request and each stage span to its compute span, filling Parent,
// and splits every root into self time and per-layer cover. Roots are
// rootName spans. With shared true a child may belong to several
// roots, as a coalesced computation belongs to every request waiting
// on it; otherwise each compute span goes to exactly one root: the
// earliest-started root of the same run that contains it and has none
// yet (a campaign's clean and faulted twins share a run identity).
func attribute(spans []span, rootName string, shared bool) attribution {
	var a attribution
	byKey := map[string][]int{}
	byRun := map[string][]int{}
	for i, s := range spans {
		switch s.Kind {
		case kindTier:
			byKey[s.Key] = append(byKey[s.Key], i)
		case kindCompute:
			byRun[s.Run] = append(byRun[s.Run], i)
		}
		if s.Name == rootName {
			a.roots = append(a.roots, i)
		}
	}
	iv := func(i int) interval { return interval{spans[i].Start, spans[i].End} }
	overlaps := func(r, c int) bool { return spans[c].Start < spans[r].End && spans[c].End > spans[r].Start }
	setParent := func(c, r int) {
		if spans[c].Parent == 0 {
			spans[c].Parent = r + 1
		}
	}
	computeOf := map[int][]int{}
	if !shared {
		taken := map[int]bool{}
		roots := append([]int(nil), a.roots...)
		sort.Slice(roots, func(i, j int) bool { return spans[roots[i]].Start < spans[roots[j]].Start })
		byRunRoots := map[string][]int{}
		for _, r := range roots {
			byRunRoots[spans[r].Run] = append(byRunRoots[spans[r].Run], r)
		}
		for run, cs := range byRun {
			for _, c := range cs {
				for _, r := range byRunRoots[run] {
					if !taken[r] && spans[c].Start >= spans[r].Start && spans[c].End <= spans[r].End {
						taken[r] = true
						computeOf[r] = append(computeOf[r], c)
						break
					}
				}
			}
		}
	}
	for _, r := range a.roots {
		layers := map[string][]interval{}
		for _, c := range byKey[spans[r].Key] {
			if overlaps(r, c) {
				layers[kindTier] = append(layers[kindTier], iv(c))
				setParent(c, r)
			}
		}
		comps := computeOf[r]
		if shared {
			for _, c := range byRun[spans[r].Run] {
				if overlaps(r, c) {
					comps = append(comps, c)
				}
			}
		}
		for _, c := range comps {
			layers[kindCompute] = append(layers[kindCompute], iv(c))
			setParent(c, r)
		}
		var all []interval
		cover := map[string]int64{}
		for layer, kids := range layers {
			cover[layer] = covered(iv(r), kids)
			all = append(all, kids...)
		}
		a.self = append(a.self, selfTime(iv(r), all))
		a.cover = append(a.cover, cover)
	}
	for i, s := range spans {
		if s.Kind != kindStage {
			continue
		}
		for _, c := range byRun[s.Run] {
			if s.Start >= spans[c].Start && s.End <= spans[c].End {
				spans[i].Parent = c + 1
				break
			}
		}
	}
	return a
}
