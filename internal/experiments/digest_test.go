package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/kernel_digests.txt from current output")

// digestIDs are the experiments whose hot loops run through the numeric
// kernels in internal/stats, internal/dynamics, internal/regulate,
// internal/magent and internal/dcsp. A kernel rewrite must leave every
// one of their canonical bytes unchanged at every seed below.
var digestIDs = []string{"e14", "e18", "e19", "e28", "e29", "e30", "e31"}

// digestQuickSeeds and digestFullSeeds are the seeds the gate pins. The
// quick-suite golden covers seed 42 only; a reordered summation often
// leaves one seed's rounded table cells intact and shows at another.
var (
	digestQuickSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	digestFullSeeds  = []uint64{1, 2}
)

const digestPath = "testdata/kernel_digests.txt"

type digestCase struct {
	id    string
	quick bool
	seed  uint64
}

func (c digestCase) key() string {
	mode := "full"
	if c.quick {
		mode = "quick"
	}
	return fmt.Sprintf("%s %s %d", c.id, mode, c.seed)
}

func digestCases(short bool) []digestCase {
	var cases []digestCase
	for _, id := range digestIDs {
		for _, s := range digestQuickSeeds {
			cases = append(cases, digestCase{id, true, s})
		}
		if short {
			continue
		}
		for _, s := range digestFullSeeds {
			cases = append(cases, digestCase{id, false, s})
		}
	}
	return cases
}

func canonicalDigest(c digestCase) (string, error) {
	e, ok := Find(c.id)
	if !ok {
		return "", fmt.Errorf("experiment %s not registered", c.id)
	}
	res, err := e.Record(Config{Seed: c.seed, Quick: c.quick})
	if err != nil {
		return "", err
	}
	b, err := res.AppendCanonical(nil)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", digestPath, line)
		}
		want[line[:i]] = line[i+1:]
	}
	return want
}

// TestKernelDigests recomputes the sha256 of the canonical result bytes
// for the kernel-heavy experiments at many seeds and compares them with
// the committed digests. Regenerate (only for an intended output change)
// with
//
//	go test ./internal/experiments -run KernelDigests -update-digests
func TestKernelDigests(t *testing.T) {
	cases := digestCases(testing.Short() && !*updateDigests)
	var want map[string]string
	if !*updateDigests {
		want = readDigests(t)
	}
	got := make([]string, len(cases))
	// The group returns once every parallel case has finished.
	t.Run("cases", func(t *testing.T) {
		for i, c := range cases {
			t.Run(strings.ReplaceAll(c.key(), " ", "/"), func(t *testing.T) {
				t.Parallel()
				d, err := canonicalDigest(c)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = d
				if want == nil {
					return
				}
				if w, ok := want[c.key()]; !ok {
					t.Errorf("no committed digest in %s", digestPath)
				} else if d != w {
					t.Errorf("canonical bytes drifted: digest %s, want %s", d, w)
				}
			})
		}
	})
	if !*updateDigests || t.Failed() {
		return
	}
	lines := make([]string, len(cases))
	for i, c := range cases {
		lines[i] = c.key() + " " + got[i]
	}
	sort.Strings(lines)
	body := "# sha256 of AppendCanonical bytes: <id> <quick|full> <seed> <digest>\n" +
		"# regenerate: go test ./internal/experiments -run KernelDigests -update-digests\n" +
		strings.Join(lines, "\n") + "\n"
	if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s (%d digests)", digestPath, len(lines))
}
