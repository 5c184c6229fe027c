// Command sconeperf is the repository's benchmark. It drives five seeded,
// closed-loop workloads through the fault-campaign stack — the campaign
// engine, k-fault planning, TVLA leakage evaluation, the sconed service over
// HTTP and the distributed lease fabric — checks every output, and prints
// every metric by name and unit. BENCHMARK.json at the repository root
// records the contract: workloads, metrics, units, directions and
// regression bounds. README.md beside this file explains why each workload
// exists, defines each metric and says how to trace and compare runs.
//
// Usage:
//
//	sconeperf [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	          [-trace-out DIR] [-report-dir DIR] [-short]
//	sconeperf compare PARENT_DIR CHANGE_DIR
//
// Each op list has a fixed length, sized so that a run of the default 20
// seconds took about that long on the reference machine; every commit runs
// the same ops, however fast it is. Each workload runs in child processes of this binary: several
// set-up-only children give the median cold set-up time, and one child
// measures, so peak RSS belongs to one workload. With -trace 1 a single
// child replays the op-list prefix with spans recorded, writes them to
// -trace-out, and reports the per-layer metrics instead of the end-to-end
// ones.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose outputs fail a
// correctness check still prints it, then exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/service"
)

// processStart is taken during package initialisation, before main: a
// child's set-up time runs from here.
var processStart = time.Now()

// childEnv selects a child's role: setup, run or trace. chunkEnv gives a
// measuring child the chunk of the op list it runs.
const (
	childEnv = "SCONEPERF_CHILD"
	chunkEnv = "SCONEPERF_CHUNK"
)

// setupChildren is the number of set-up-only children on each side of the
// measuring children; setup_s is the median of their set-ups and the
// measuring children's own.
const setupChildren = 10

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is a parsed invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	traceOut  string
	reportDir string
	short     bool
	// chunk is the op-list chunk a measuring child runs.
	chunk int
	// golden pins the leading op tallies per workload for the default seed.
	golden map[string][]string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("sconeperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{golden: golden}
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: campaign, sweep, tvla, service, fabric or all")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed; ops are a pure function of (seed, op index)")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "run length per workload: op lists hold their default length times seconds/20")
	trace := fs.Int("trace", 0, "1 runs the traced prefix and per-layer replays instead of the end-to-end measurement")
	fs.StringVar(&cfg.traceOut, "trace-out", os.TempDir(), "directory the traced run writes its span JSON to")
	fs.StringVar(&cfg.reportDir, "report-dir", "", "directory to keep one JSON report per run in, for compare")
	fs.BoolVar(&cfg.short, "short", false, "smoke-test size: 1 s per workload unless -seconds is given, smaller layer replays")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if cfg.short && !secondsSet {
		cfg.seconds = 1
	}
	switch {
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace)
	case cfg.seconds <= 0:
		return cfg, fmt.Errorf("-seconds must be positive (got %g)", cfg.seconds)
	}
	cfg.trace = *trace == 1
	if _, ok := findWorkload(cfg.workload); !ok && cfg.workload != "all" {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return cfg, nil
}

// childArgs re-encodes cfg for a child process.
func (c config) childArgs() []string {
	args := []string{
		"-workload", c.workload,
		"-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace-out", c.traceOut,
	}
	if c.short {
		args = append(args, "-short")
	}
	return args
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	var err error
	if len(args) > 0 && args[0] == "compare" {
		err = compareCmd(args[1:], stdout)
	} else {
		var cfg config
		if cfg, err = parseFlags(args, stderr); err == nil {
			err = run(cfg, stdout, stderr)
		}
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(stderr, "sconeperf:", err)
	}
	return exitCode(err)
}

// exitCode maps an invocation's outcome to its exit status: 1 when outputs
// failed their checks or compare found a regression, 2 when the benchmark
// itself could not run.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errIncorrect), errors.Is(err, errRegression):
		return 1
	default:
		return 2
	}
}

func childMain(mode string, args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err == nil {
		cfg.chunk, _ = strconv.Atoi(os.Getenv(chunkEnv)) // unset for other roles
		var rep report
		if rep, err = child(mode, cfg, processStart); err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "sconeperf %s child: %v\n", mode, err)
		return 1
	}
	return 0
}

// run measures the selected workloads, each in its own children, and
// prints their reports followed by the result line.
func run(cfg config, stdout, stderr io.Writer) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var reps []report
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := runWorkload(c, stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printReport(stdout, rep)
		if cfg.reportDir != "" {
			if err := writeReport(cfg.reportDir, rep); err != nil {
				return err
			}
		}
		reps = append(reps, rep)
	}
	return finish(stdout, reps)
}

func runWorkload(cfg config, stderr io.Writer) (report, error) {
	if cfg.trace {
		rep, _, err := spawn("trace", cfg, stderr)
		return rep, err
	}
	// Set-up-only children run on both sides of the measuring ones, so the
	// median spans the run rather than one moment of the machine's drifting
	// speed.
	var setups []float64
	setUp := func() error {
		for k := 0; k < setupChildren; k++ {
			r, _, err := spawn("setup", cfg, stderr)
			if err != nil {
				return err
			}
			setups = append(setups, r.SetupS)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return report{}, err
	}
	w, _ := findWorkload(cfg.workload)
	rep := report{Workload: w.name, Seed: service.U64(cfg.seed), Seconds: cfg.seconds, Metrics: map[string]metric{}}
	var t timing
	var peakKiB int64
	chunks := w.chunks(w.opCount(cfg.seconds))
	for k := range chunks {
		cfg.chunk = k
		c, ru, err := spawn("run", cfg, stderr)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, c.SetupS)
		rep.Attempted += c.Attempted
		rep.Failed += c.Failed
		for _, e := range c.Errors {
			rep.note(e)
		}
		rep.Ops += c.Ops
		rep.WarmupOps += c.WarmupOps
		rep.Tallies = append(rep.Tallies, c.Tallies...)
		t.add(*c.Timing)
		peakKiB = max(peakKiB, ru.Maxrss) // Maxrss is in KiB on Linux
	}
	if err := setUp(); err != nil {
		return report{}, err
	}
	rep.digest()
	rep.setTimings(t)
	rep.set("setup_s", median(setups), len(setups))
	rep.set("peak_rss_mb", float64(peakKiB)/1024, len(chunks))
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// spawn runs one child of this binary and returns its report and resource
// usage. The child is killed if it overruns its budget.
func spawn(mode string, cfg config, stderr io.Writer) (report, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, nil, err
	}
	limit := time.Duration(cfg.seconds*float64(time.Second)) + 150*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, cfg.childArgs()...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode, chunkEnv+"="+strconv.Itoa(cfg.chunk))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return report{}, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var rep report
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return report{}, nil, fmt.Errorf("%s child report: %w", mode, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		ru = &syscall.Rusage{}
	}
	return rep, ru, nil
}

func printReport(w io.Writer, r report) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s)  seed %d  %gs  ops %d (%d warm-up)  failed %d/%d  tally_digest %s\n",
		r.Workload, mode, uint64(r.Seed), r.Seconds, r.Ops, r.WarmupOps, r.Failed, r.Attempted, r.TallyDigest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-26s %14.6g %-7s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
}

func writeReport(dir string, r report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Trace {
		kind = "trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-%d.json", r.Workload, kind, uint64(r.Seed))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// resultMetric is a metric as the result line carries it.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output. With several workloads the
// metric names are prefixed with the workload.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// finish prints the result line and fails the invocation when any
// workload's outputs failed a check.
func finish(stdout io.Writer, reps []report) error {
	res := result{Correct: true, Metrics: map[string]resultMetric{}}
	for _, r := range reps {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(reps) > 1 {
				n = r.Workload + "/" + n
			}
			res.Metrics[n] = resultMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}
