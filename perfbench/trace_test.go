package main

import (
	"testing"
	"time"

	"resilience/internal/obs"
)

func TestCoveredMergesOverlappingAndNestedChildren(t *testing.T) {
	p := interval{0, 100}
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 20},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 30},
		{"nested", []interval{{10, 50}, {20, 30}}, 40},
		{"clipped to the parent", []interval{{-10, 10}, {90, 120}}, 20},
		{"outside the parent", []interval{{100, 110}, {-5, 0}}, 0},
		{"unsorted chain", []interval{{60, 70}, {10, 20}, {15, 65}}, 60},
		{"identical", []interval{{10, 20}, {10, 20}}, 10},
	}
	for _, c := range cases {
		if got := covered(p, c.kids); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
		if got := selfTime(p, c.kids); got != 100-c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, 100-c.want)
		}
	}
}

// A coalesced waiter shares the leader's digest: the one computation
// and its cache write are children of both requests, each clipped to
// the request's own interval.
func TestAttributeCoalescedWaitersShareOneDigest(t *testing.T) {
	spans := []span{
		{Name: "server.handler", Kind: kindHandler, Key: "d", Run: "d", Start: 0, End: 100},
		{Name: "server.handler", Kind: kindHandler, Key: "d", Run: "d", Start: 10, End: 96},
		{Name: "rescache.mem.get", Kind: kindTier, Key: "d", Start: 1, End: 2},
		{Name: "rescache.fs.get", Kind: kindTier, Key: "d", Start: 2, End: 3},
		{Name: "experiments.e01", Kind: kindCompute, Run: "d", Start: 5, End: 90},
		{Name: "engine.stage.e01.a", Kind: kindStage, Run: "d", Start: 6, End: 40},
		{Name: "rescache.fs.put", Kind: kindTier, Key: "d", Start: 91, End: 95},
		{Name: "server.handler", Kind: kindHandler, Key: "x", Run: "x", Start: 0, End: 50},
	}
	a := attribute(spans, "server.handler", true)
	if len(a.roots) != 3 {
		t.Fatalf("roots = %v, want 3", a.roots)
	}
	want := []struct {
		self           int64
		tier, computed int64
	}{
		{self: 100 - 6 - 85, tier: 6, computed: 85}, // leader: gets 1+1, put 4, compute 85
		{self: 86 - 4 - 80, tier: 4, computed: 80},  // waiter: put 4, compute clipped to [10,90)
		{self: 50}, // unrelated request: no children
	}
	for i, w := range want {
		if a.self[i] != w.self || a.cover[i][kindTier] != w.tier || a.cover[i][kindCompute] != w.computed {
			t.Errorf("root %d: self %d tier %d compute %d, want %+v", i, a.self[i], a.cover[i][kindTier], a.cover[i][kindCompute], w)
		}
	}
	if spans[4].Parent != 1 || spans[5].Parent != 5 || spans[6].Parent != 1 {
		t.Errorf("parents: compute %d stage %d put %d, want 1, 5, 1", spans[4].Parent, spans[5].Parent, spans[6].Parent)
	}
}

// Tier and compute children that overlap inside one request are
// merged, not counted twice.
func TestAttributeMergesOverlappingLayers(t *testing.T) {
	spans := []span{
		{Name: "server.handler", Kind: kindHandler, Key: "d", Run: "d", Start: 0, End: 100},
		{Name: "rescache.fs.get", Kind: kindTier, Key: "d", Start: 10, End: 60},
		{Name: "experiments.e01", Kind: kindCompute, Run: "d", Start: 40, End: 90},
	}
	a := attribute(spans, "server.handler", true)
	if a.self[0] != 20 {
		t.Errorf("self = %d, want 20 (children union covers 80)", a.self[0])
	}
}

// A campaign's clean and faulted twins share a run identity; with
// sharing off each computation goes to exactly one scenario.
func TestAttributeExclusiveTwins(t *testing.T) {
	spans := []span{
		{Name: "campaign.exec", Kind: kindExec, Key: "clean", Run: "r", Start: 0, End: 50},
		{Name: "campaign.exec", Kind: kindExec, Key: "faulted", Run: "r", Start: 1, End: 60},
		{Name: "experiments.e01", Kind: kindCompute, Run: "r", Start: 5, End: 45},
		{Name: "experiments.e01", Kind: kindCompute, Run: "r", Start: 8, End: 55},
	}
	a := attribute(spans, "campaign.exec", false)
	if a.cover[0][kindCompute] != 40 || a.cover[1][kindCompute] != 47 {
		t.Errorf("compute cover %d, %d; want 40, 47", a.cover[0][kindCompute], a.cover[1][kindCompute])
	}
}

// The reconcile check compares the traced root spans with the
// program's own timing of the same work, so a root span the trace
// lost fails it — for the daemon against server.latency, and for the
// campaign against the runner's suite spans.
func TestReconcileFailsOnDroppedSpan(t *testing.T) {
	const ms = int64(time.Millisecond)
	handlers := []span{
		{Name: "server.handler", Kind: kindHandler, Start: 0, End: 2 * ms},
		{Name: "server.handler/v1/suite", Kind: kindHandler, Start: ms, End: 5 * ms},
		{Name: "server.handler", Kind: kindHandler, Start: 3 * ms, End: 4 * ms},
		{Name: "server.handler/metrics", Kind: kindHandler, Start: 0, End: 9 * ms}, // not work
	}
	daemon := phase{rootName: "server.handler", before: probe{latencySum: 10}, after: probe{latencySum: 10.00695}}
	if r, err := reconcile(handlers, daemon); err != nil {
		t.Errorf("complete daemon trace: ratio %v: %v", r, err)
	}
	if r, err := reconcile(append(handlers[:2:2], handlers[3]), daemon); err == nil {
		t.Errorf("daemon trace missing a request: ratio %v passed", r)
	}

	tr := newTracer()
	o := obs.New()
	for i := 0; i < 3; i++ {
		si := tr.begin("campaign.exec", kindExec, "", "")
		s := o.Span("suite", "suite")
		time.Sleep(2 * time.Millisecond)
		s.End()
		tr.end(si, false)
	}
	sweep := phase{rootName: "campaign.exec", obs: o}
	spans := tr.since(0)
	if r, err := reconcile(spans, sweep); err != nil {
		t.Errorf("complete campaign trace: ratio %v: %v", r, err)
	}
	if r, err := reconcile(spans[1:], sweep); err == nil {
		t.Errorf("campaign trace missing a scenario: ratio %v passed", r)
	}
}
