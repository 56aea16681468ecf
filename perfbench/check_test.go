package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

func testOptions(t *testing.T, workload string, corrupt string) options {
	return options{
		workload: workload,
		seed:     3,
		seconds:  1,
		workDir:  t.TempDir(),
		out:      io.Discard,
		rounds:   1,
		corrupt:  corrupt,
	}
}

// The output checks work in both directions: a run whose references
// are correct passes, and the same run fails, making the command exit
// non-zero, when one byte a response is compared with is flipped
// (corruptReference) or when one expected result in expected.json is
// wrong (corruptExpected) — as it is, from the run's point of view,
// when a program change makes every compute of a run return the same
// wrong bytes.
func TestCorruptedReferenceFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon and computes")
	}
	cases := []struct{ workload, corrupt string }{
		{"mixed-load", ""},
		{"mixed-load", corruptReference},
		{"mixed-load", corruptExpected},
		{"campaign-sweep", ""},
		{"campaign-sweep", corruptExpected},
	}
	for _, c := range cases {
		o := testOptions(t, c.workload, c.corrupt)
		rep, err := workloads[c.workload](o, nil)
		if raceEnabled && errors.Is(err, errLate) {
			t.Logf("%+v: %v; the race detector slows the generator, so this case is not checked", c, err)
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		rep.tails = nil // a one-second run cannot support its tail percentiles
		var out bytes.Buffer
		emitErr := emit(&out, o, rep)
		corrupt := c.corrupt != ""
		var bad *incorrectError
		if got := errors.As(emitErr, &bad); got != corrupt {
			t.Errorf("%+v: run failed = %v (%v), want %v", c, got, emitErr, corrupt)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%+v: last line is not the result: %v (emit: %v)", c, err, emitErr)
		}
		if res.Correct == corrupt {
			t.Errorf("%+v: correct = %v", c, res.Correct)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%+v: %d metrics, want %d", c, len(res.Metrics), len(endToEnd))
		}
	}
}

func TestSameResultBlanksOnlyWallClockScalars(t *testing.T) {
	a := []byte(`{"scalars":[{"name":"synthesisTime/chain/50","value":"9.7µs"},{"name":"n","value":3}]}`)
	b := []byte(`{"scalars":[{"name":"synthesisTime/chain/50","value":"25.1µs"},{"name":"n","value":3}]}`)
	c := []byte(`{"scalars":[{"name":"synthesisTime/chain/50","value":"25.1µs"},{"name":"n","value":4}]}`)
	if !sameResult(a, b) {
		t.Error("results differing only in wall-clock scalars compared unequal")
	}
	if sameResult(a, c) {
		t.Error("results differing in a seeded value compared equal")
	}
}
