package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"resilience/internal/campaign"
)

// expected.json holds the program's expected outputs for every input
// the workloads can send, computed once from the sources it was
// committed with (`go test -run TestExpected -update` in this
// directory). The output checks compare against it, so a change to the
// program that alters a result — consistently, in the cache and in a
// fresh compute alike — still fails the run. Regenerate it only for a
// change that is meant to alter results.
//
//go:embed expected.json
var expectedJSON []byte

// expectedDoc is the parsed expected.json.
type expectedDoc struct {
	Schema string `json:"schema"`
	// Results maps resultKey(id, seed) to the resultDigest of that
	// quick run, for the hot set and the cold-compute catalogue.
	Results map[string]string `json:"results"`
	// Campaign is the campaign-sweep output: its rows in expectedRows
	// form and its summary.
	Campaign struct {
		Rows    []campaign.Row  `json:"rows"`
		Summary json.RawMessage `json:"summary"`
	} `json:"campaign"`
}

const expectedSchema = "perfbench-expected/1"

// loadExpected parses a fresh copy of the expected outputs, which a
// self-test may then corrupt without touching other runs.
func loadExpected() (*expectedDoc, error) {
	var x expectedDoc
	if err := json.Unmarshal(expectedJSON, &x); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if x.Schema != expectedSchema {
		return nil, fmt.Errorf("expected.json: schema %q, want %q", x.Schema, expectedSchema)
	}
	var sum bytes.Buffer
	if err := json.Compact(&sum, x.Campaign.Summary); err != nil {
		return nil, fmt.Errorf("expected.json: campaign summary: %w", err)
	}
	x.Campaign.Summary = sum.Bytes()
	return &x, nil
}

func resultKey(id string, seed uint64) string { return id + "/" + strconv.FormatUint(seed, 10) }

// resultDigest identifies one result: sha256 over its compact
// canonical bytes (a /v1/run body compacts to exactly the /v1/suite
// line), with e04's wall-clock scalars blanked (see wallClock).
func resultDigest(body []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		return "", err
	}
	b := buf.Bytes()
	if blanked := wallClock.ReplaceAll(b, wallClockBlank); !bytes.Equal(blanked, b) {
		wallClockMasked.Add(1)
		b = blanked
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}

// check compares one body with the expected result of k.
func (x *expectedDoc) check(k runKey, body []byte) error {
	want, ok := x.Results[resultKey(k.id, k.seed)]
	if !ok {
		return fmt.Errorf("%s seed %d: no expected result in expected.json", k.id, k.seed)
	}
	got, err := resultDigest(body)
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", k.id, k.seed, err)
	}
	if got != want {
		return fmt.Errorf("%s seed %d: result digest %s, expected %s: %w", k.id, k.seed, got, want, errWrongBytes)
	}
	return nil
}

// checkAll checks every body of bodies, recording each mismatch.
func (x *expectedDoc) checkAll(rep *report, what string, bodies map[runKey][]byte) {
	for k, b := range bodies {
		if err := x.check(k, b); err != nil {
			rep.problemf("%s: %v", what, err)
		}
	}
}

// expectedRows puts campaign rows in the order-free form expected.json
// keeps: scenario indexes dropped (the workload seed shuffles them),
// sorted by experiment, seed and plan, and the digests of
// wallClockExperiments blanked, since they hash wall-clock bytes.
func expectedRows(rows []campaign.Row) []campaign.Row {
	out := make([]campaign.Row, len(rows))
	for i, r := range rows {
		r.Scenario = 0
		if wallClockExperiments[r.Experiment] && r.Digest != "" {
			r.Digest = "-"
			wallClockMasked.Add(1)
		}
		out[i] = r
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Plan < b.Plan
	})
	return out
}

// checkCampaign compares one sweep's rows and summary with the expected
// campaign output. The summary is compared whole: every figure in it
// is a function of the rows' multiset, not their order.
func (x *expectedDoc) checkCampaign(rows []campaign.Row, sum campaign.Summary) error {
	got := expectedRows(rows)
	if len(got) != len(x.Campaign.Rows) {
		return fmt.Errorf("%d rows, expected %d", len(got), len(x.Campaign.Rows))
	}
	for i := range got {
		if got[i] != x.Campaign.Rows[i] {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(x.Campaign.Rows[i])
			return fmt.Errorf("row %s differs from expected %s", g, w)
		}
	}
	s, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	if !bytes.Equal(s, x.Campaign.Summary) {
		return fmt.Errorf("summary %.300s differs from expected %.300s", s, x.Campaign.Summary)
	}
	return nil
}
