// Command perfbench is the repository benchmark. It drives the real
// program — the daemon built with server.New and wired as `resilience
// serve` wires it, or the campaign engine through campaign.LocalExec —
// on one named workload, checks every output it gets back, and prints
// one JSON result line:
//
//	perfbench --workload mixed-load --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"), measured on plain wiring. With --trace 1 the same
// workload runs twice, once plain and once with timing wrappers at the
// program's public seams, and the metrics are the per-layer ones plus
// the tracing overhead (traced minus plain). Spans are kept in memory
// and written to --trace-dir at the end.
//
// Build and run it through run.sh, which builds this module and the
// resilience CLI from the checkout's sources.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart is taken as early as the runtime lets a package
// variable be set, so the first set-up round includes process start.
var processStart = time.Now()

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	cli      string
	workDir  string
	traceDir string
	out      io.Writer // progress lines; the result line goes to stdout last
	// rounds overrides the number of set-up rounds (tests use 1).
	rounds int
	// corrupt is a self-test of the output checks, which must then fail
	// the run: corruptReference flips one byte of a reference the
	// program's responses are compared with, corruptExpected one digit
	// of an expected result in expected.json.
	corrupt string
}

// report is what one workload run produces.
type report struct {
	attempted int
	failed    int
	// problems lists every output check that failed; any entry makes
	// the run incorrect.
	problems []string
	metrics  map[string]float64
	tails    []tailCheck
}

func (r *report) problemf(format string, args ...any) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == keep {
		r.problems = append(r.problems, "further problems not listed")
	}
}

// hostNote prints the host-speed factors a run's figures were
// rescaled by (see hostSpeed).
func (r *report) hostNote(o options, hs *hostSpeed) {
	fmt.Fprintf(o.out, "%s: host speed factor wall %.4f cpu %.4f over %d samples (wall %.4f)\n",
		o.workload, hs.wallFactor(), hs.cpuFactor(), len(hs.wall), sortedCopy(hs.wall))
}

// workload runs one named workload for o.seconds and reports its
// metrics; traced selects the seam-wrapped wiring.
type workload func(o options, tr *tracer) (*report, error)

var workloads = map[string]workload{
	"mixed-load":     runMixedLoad,
	"campaign-sweep": runCampaignSweep,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var bad *incorrectError
		if errors.As(err, &bad) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// incorrectError marks a run that completed but whose outputs were
// wrong; its result line has already been printed with correct=false.
type incorrectError struct{ problems []string }

func (e *incorrectError) Error() string {
	return fmt.Sprintf("%d output check(s) failed, first: %s", len(e.problems), e.problems[0])
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: mixed-load or campaign-sweep")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer variant")
	fs.StringVar(&o.cli, "cli", filepath.Join(".bench_build", "resilience"), "resilience CLI binary for the CLI-parity check")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "work"), "scratch directory for cache tiers (emptied per run)")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans")
	fs.StringVar(&o.corrupt, "corrupt", "", "self-test: corrupt one \""+corruptReference+"\" byte or one \""+corruptExpected+"\" result; the run must fail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	o.trace = traceFlag == 1
	o.out = os.Stderr
	if err := os.RemoveAll(o.workDir); err != nil {
		return err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.workDir)

	var rep *report
	var err error
	if o.trace {
		rep, err = runTraced(o, wl)
	} else {
		rep, err = wl(o, nil)
	}
	if err != nil {
		return err
	}
	if n := wallClockMasked.Load(); n > 0 {
		fmt.Fprintf(o.out, "known defect: %d comparisons blanked e04's wall-clock synthesisTime scalars\n", n)
	}
	return emit(stdout, o, rep)
}

// runTraced runs the workload plain and then traced, each for half the
// time, and reports the traced run's per-layer metrics plus the
// overhead tracing added to the end-to-end figures.
func runTraced(o options, wl workload) (*report, error) {
	half := o
	half.seconds = o.seconds / 2
	plain, err := wl(half, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	traced, err := wl(half, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	for _, m := range []string{"p50_ms", "ops_per_s"} {
		traced.metrics["bench.overhead."+m] = traced.metrics[m] - plain.metrics[m]
	}
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(plain.problems, traced.problems...)
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "spans: %d written to %s\n", tr.len(), path)
	return traced, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints a human-readable table, then the JSON result line last.
func emit(stdout io.Writer, o options, rep *report) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	line := resultLine{
		Correct:   len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if !o.trace {
		for _, tc := range rep.tails {
			if !tailSupported(tc.n, tc.q) {
				return fmt.Errorf("%s: %d samples leave fewer than 10 beyond p%g; run longer", tc.name, tc.n, tc.q*100)
			}
		}
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", o.workload, d.name)
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a failed request is beyond every limit
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		names = append(names, d.name)
	}
	if !o.trace {
		sort.Strings(names)
		aliases := issueNames[o.workload]
		for _, n := range names {
			alias := ""
			if a, ok := aliases[n]; ok {
				alias = "  (" + a + ")"
			}
			fmt.Fprintf(stdout, "%-14s %14.4f %s%s\n", n, rep.metrics[n], line.Metrics[n].Unit, alias)
		}
		for _, d := range printedOnly {
			fmt.Fprintf(stdout, "%-14s %14.4f %s  (%s; printed, not reported: too unsteady on a shared host)\n",
				d.name, rep.metrics[d.name], d.unit, aliases[d.name])
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		if len(rep.problems) == 0 {
			rep.problems = []string{fmt.Sprintf("%d of %d operations failed", rep.failed, rep.attempted)}
		}
		return &incorrectError{rep.problems}
	}
	return nil
}

// nproc is the parallelism the benchmark assumes everywhere: the
// daemon's default pool size, the campaign's Jobs and the closed-loop
// connection count.
func nproc() int { return runtime.GOMAXPROCS(0) }
