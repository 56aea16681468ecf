package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"resilience/internal/campaign"
	"resilience/internal/experiments"
	"resilience/internal/runner"
)

var update = flag.Bool("update", false, "rewrite expected.json from this checkout's program")

// expectedKeys is every /v1/run request a workload can send: the hot
// set and mixedBlocks catalogue seeds per experiment.
func expectedKeys() []runKey {
	keys := hotKeys()
	for _, id := range experimentIDs() {
		for b := 0; b < mixedBlocks; b++ {
			keys = append(keys, runKey{id, catalogSeed(id, b)})
		}
	}
	return keys
}

// computeDigest runs k in process with no cache and digests its
// canonical result.
func computeDigest(k runKey) (string, error) {
	e, ok := experiments.Find(k.id)
	if !ok {
		return "", fmt.Errorf("unknown experiment %s", k.id)
	}
	var out runner.Outcome
	runner.Run([]experiments.Experiment{e}, runner.Options{Jobs: 1, Seed: k.seed, Quick: true}, func(o runner.Outcome) { out = o })
	if out.Err != nil {
		return "", fmt.Errorf("%s seed %d: %w", k.id, k.seed, out.Err)
	}
	return resultDigest(out.Canon)
}

// sweepOutput runs the campaign-sweep spec for seed once, with no cache,
// and returns its rows in expected form and its summary.
func sweepOutput(t *testing.T, seed uint64) ([]campaign.Row, []byte) {
	scenarios, cfg, err := expandSweep(seed, 0, experiments.All())
	if err != nil {
		t.Fatal(err)
	}
	var rows []campaign.Row
	sum := campaign.Run(context.Background(), scenarios, cfg, campaign.LocalExec(nil, nil), func(r campaign.Row) { rows = append(rows, r) })
	s, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return expectedRows(rows), s
}

// TestExpected keeps expected.json honest: it covers every request the
// workloads can send, and a sample of it (one result per experiment,
// and the whole campaign sweep at two experiment orders) matches what
// the program computes. With -update it recomputes the whole file.
func TestExpected(t *testing.T) {
	if *update {
		writeExpected(t)
		return
	}
	if testing.Short() {
		t.Skip("computes one run per experiment and a campaign sweep")
	}
	x, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string][]runKey{}
	for _, k := range expectedKeys() {
		if _, ok := x.Results[resultKey(k.id, k.seed)]; !ok {
			t.Errorf("expected.json has no result for %s seed %d", k.id, k.seed)
		}
		byID[k.id] = append(byID[k.id], k)
	}
	r := newRand(1, "expected-sample")
	for _, id := range experimentIDs() {
		k := byID[id][r.Intn(len(byID[id]))]
		got, err := computeDigest(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := x.Results[resultKey(k.id, k.seed)]; got != want {
			t.Errorf("%s seed %d: program computes %s, expected.json says %s", k.id, k.seed, got, want)
		}
	}
	for _, seed := range []uint64{1, 2} {
		rows, sum := sweepOutput(t, seed)
		var s campaign.Summary
		if err := json.Unmarshal(sum, &s); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			rows[i].Scenario = i // checkCampaign must ignore scenario indexes
		}
		if err := x.checkCampaign(rows, s); err != nil {
			t.Errorf("campaign sweep, seed %d: %v", seed, err)
		}
	}
}

func writeExpected(t *testing.T) {
	keys := expectedKeys()
	digests := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				digests[i], errs[i] = computeDigest(keys[i])
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	x := expectedDoc{Schema: expectedSchema, Results: map[string]string{}}
	for i, k := range keys {
		x.Results[resultKey(k.id, k.seed)] = digests[i]
	}
	// The rows and summary must not depend on the experiment order the
	// workload seed picks.
	rows, sum := sweepOutput(t, 1)
	rows2, sum2 := sweepOutput(t, 2)
	if string(sum) != string(sum2) {
		t.Fatalf("campaign summary depends on the experiment order:\n%s\n%s", sum, sum2)
	}
	for i := range rows {
		if rows[i] != rows2[i] {
			t.Fatalf("campaign row depends on the experiment order: %+v vs %+v", rows[i], rows2[i])
		}
	}
	x.Campaign.Rows, x.Campaign.Summary = rows, sum
	data, err := json.MarshalIndent(x, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote expected.json: %d results, %d campaign rows", len(x.Results), len(rows))
}
