package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls must show up in the latency of every request
// scheduled behind the stall, not only in the one that hit it: the
// open loop times each request from its intended send time, so the
// wait is not omitted even though the client's single connection could
// not send during the stall either.
func TestOpenLoopStallShowsInLaterRequests(t *testing.T) {
	const (
		gap       = 10 * time.Millisecond
		stall     = 200 * time.Millisecond
		stalledAt = 4 // the fifth request stalls the handler
	)
	var mu sync.Mutex
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if served.Add(1) == stalledAt+1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()

	var ops []op
	for i := 0; i < 40; i++ {
		ops = append(ops, op{at: time.Duration(i) * gap, key: i})
	}
	res, _ := openLoop(ops, func(o op) error {
		_, err := c.post("/", nil, "")
		return err
	})
	if len(res) != len(ops) {
		t.Fatalf("measured %d of %d requests", len(res), len(ops))
	}
	stallEnd := time.Duration(stalledAt)*gap + stall
	behind := 0
	for _, o := range res {
		if o.err != nil {
			t.Fatalf("request at %v: %v", o.at, o.err)
		}
		if o.at <= time.Duration(stalledAt)*gap || o.at >= stallEnd-2*gap {
			continue
		}
		behind++
		if want := stallEnd - o.at - gap; o.lat < want {
			t.Errorf("request intended at %v: latency %v, want at least %v (the rest of the stall)", o.at, o.lat, want)
		}
	}
	if behind < 10 {
		t.Fatalf("only %d requests were scheduled behind the stall", behind)
	}
	xs := latencies(res, 0)
	if p90 := quantile(xs, 0.9); p90 < ms(stall)/2 {
		t.Errorf("p90 %vms hides the stall", p90)
	}
}

func TestLatenessLimit(t *testing.T) {
	ok := []outcome{{late: time.Millisecond}, {late: 2 * time.Millisecond}}
	if _, err := lateness(ok); err != nil {
		t.Errorf("on-time generator flagged: %v", err)
	}
	late := append(ok, outcome{late: 2 * maxLateP99})
	if _, err := lateness(late); err == nil {
		t.Error("a generator late beyond the limit was not flagged")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	gen := func(seed uint64) []op {
		r := newRand(seed, "t")
		return evenly(nil, r, 100, time.Second, opHit, func() int { return r.Intn(1000) })
	}
	a, b := gen(7), gen(7)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("lengths %d and %d, want 100 at 100/s for 1s", len(a), len(b))
	}
	if c := gen(8); c[0] == a[0] {
		t.Errorf("seeds 7 and 8 gave the same first op %+v", a[0])
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// openLoopStretches runs a schedule a stretch at a time with a
// host-speed sample between stretches, keeps a twin in the stretch of
// the op it duplicates, returns outcomes in schedule order, and
// rescales each latency by its own stretch's factor.
func TestOpenLoopStretches(t *testing.T) {
	hs, err := newHostSpeed(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ops := []op{
		{at: 0, kind: opHit, key: 0},
		{at: stretch - time.Millisecond/2, kind: opCompute, key: 1},
		{at: stretch + time.Millisecond/2, kind: opTwin, key: 1},
		{at: stretch + time.Millisecond, kind: opHit, key: 2},
	}
	var rss peakRSS
	res, cpu := openLoopStretches(ops, hs, &rss, func(op) error { return nil })
	if len(res) != len(ops) || cpu < 0 {
		t.Fatalf("%d outcomes, cpu %v", len(res), cpu)
	}
	if len(hs.wall) != 3 || len(rss) != 2 {
		t.Fatalf("%d host-speed samples and %d peaks, want 3 and 2 for two stretches", len(hs.wall), len(rss))
	}
	want := []float64{hs.over(0, 1), hs.over(0, 1), hs.over(0, 1), hs.over(1, 2)}
	for i, o := range res {
		if o.op != ops[i] {
			t.Errorf("outcome %d is op %+v, want %+v", i, o.op, ops[i])
		}
		if o.speed != want[i] {
			t.Errorf("outcome %d: factor %v, want %v", i, o.speed, want[i])
		}
	}
	if got := latencies(res[:1], opHit)[0]; got != ms(res[0].lat)/want[0] {
		t.Errorf("latency %vms not rescaled by its stretch's factor %v", got, want[0])
	}
}
