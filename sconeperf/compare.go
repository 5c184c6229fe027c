package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

var errRegression = errors.New("the change regresses at least one metric")

// Verdicts compare reports.
const (
	verdictUnchanged  = "unchanged"
	verdictRegression = "regression"
	verdictGain       = "gain"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// summary is one side's runs of one (workload, metric) cell.
type summary struct {
	Q1, Median, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Q1: q1, Median: q2, Q3: q3, N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// row is one compared (workload, metric) cell.
type row struct {
	Workload, Metric, Unit string
	Parent, Change         summary
	// Worse is how much worse the change's median is than the parent's,
	// as a share of the parent's (negative when it is better).
	Worse       float64
	Wins, Pairs int
	Verdict     string
}

// sample is one report's value of a metric, keyed by the run's seed so runs
// of the two commits can be paired.
type sample struct {
	seed  uint64
	value float64
}

// compareCells applies the small-sandbox rule to one metric:
//   - a gain needs the change to win at least 9 in 10 seed-paired runs
//     (ties count for neither) and a median gap larger than the parent's
//     interquartile range;
//   - when either side's spread exceeds the bound the cell is unresolved,
//     unless every change run beats every parent run (or loses to every
//     one, which with a gap beyond the bound is a regression);
//   - otherwise the change regresses when its median is worse than the
//     parent's by more than the bound.
func compareCells(def metricDef, parent, change []sample) row {
	r := row{Metric: def.Name, Unit: def.Unit}
	pv, cv := values(parent), values(change)
	if len(pv) == 0 || len(cv) == 0 {
		r.Verdict = verdictMissing
		return r
	}
	r.Parent, r.Change = summarize(pv), summarize(cv)
	better := func(a, b float64) bool { // a reads better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	r.Worse = (r.Change.Median - r.Parent.Median) / r.Parent.Median
	if def.Better == "higher" {
		r.Worse = -r.Worse
	}
	bySeed := map[uint64]float64{}
	for _, p := range parent {
		bySeed[p.seed] = p.value
	}
	for _, c := range change {
		p, ok := bySeed[c.seed]
		if !ok {
			continue
		}
		r.Pairs++
		if better(c.value, p) {
			r.Wins++
		}
	}
	allBetter, allWorse := true, true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	gap := r.Change.Median - r.Parent.Median
	if gap < 0 {
		gap = -gap
	}
	noisy := r.Parent.spread() > def.Bound || r.Change.spread() > def.Bound
	switch {
	case r.Worse < 0 && r.Pairs > 0 && 10*r.Wins >= 9*r.Pairs && gap > r.Parent.Q3-r.Parent.Q1:
		r.Verdict = verdictGain
	case noisy && !allBetter && !(allWorse && r.Worse > def.Bound):
		r.Verdict = verdictUnresolved
	case r.Worse > def.Bound:
		r.Verdict = verdictRegression
	default:
		r.Verdict = verdictUnchanged
	}
	return r
}

func values(rs []sample) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.value
	}
	return out
}

// compareReports compares every end-to-end metric of every workload the
// parent reports on, plus each workload's share of failed ops, which may
// not grow at all.
func compareReports(parent, change []report) []row {
	var rows []row
	for _, w := range workloads {
		ps, cs := byWorkload(parent, w.name), byWorkload(change, w.name)
		if len(ps) == 0 {
			continue
		}
		for _, def := range endToEnd {
			r := compareCells(def, metricRuns(ps, def.Name), metricRuns(cs, def.Name))
			r.Workload = w.name
			rows = append(rows, r)
		}
		rows = append(rows, compareFailures(w.name, ps, cs))
	}
	return rows
}

func byWorkload(reps []report, name string) []report {
	var out []report
	for _, r := range reps {
		if r.Workload == name && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func metricRuns(reps []report, name string) []sample {
	var out []sample
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, sample{seed: uint64(r.Seed), value: m.Value})
		}
	}
	return out
}

func compareFailures(workload string, parent, change []report) row {
	share := func(reps []report) (float64, int) {
		failed, attempted := 0, 0
		for _, r := range reps {
			failed += r.Failed
			attempted += r.Attempted
		}
		if attempted == 0 {
			return 0, 0
		}
		return float64(failed) / float64(attempted), len(reps)
	}
	p, pn := share(parent)
	c, cn := share(change)
	r := row{
		Workload: workload, Metric: "failed_share", Unit: "ratio",
		Parent: summary{Q1: p, Median: p, Q3: p, N: pn}, Change: summary{Q1: c, Median: c, Q3: c, N: cn},
		Worse: c - p, Verdict: verdictUnchanged,
	}
	switch {
	case cn == 0:
		r.Verdict = verdictMissing
	case c > p:
		r.Verdict = verdictRegression
	}
	return r
}

func loadReports(dir string) ([]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no run reports in %s", dir)
	}
	sort.Strings(paths)
	reps := make([]report, 0, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// compareCmd is `sconeperf compare PARENT_DIR CHANGE_DIR`: both directories
// hold -report-dir reports of runs with the same benchmark code and
// settings. It prints one row per (workload, metric) and exits 1 when any
// row is a regression.
func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: sconeperf compare PARENT_DIR CHANGE_DIR")
	}
	parent, err := loadReports(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := loadReports(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := compareReports(parent, change)
	printRows(stdout, rows)
	for _, r := range rows {
		if r.Verdict == verdictRegression {
			return errRegression
		}
	}
	return nil
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-9s %-15s %-38s %-38s %8s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "worse", "wins", "verdict")
	cell := func(s summary) string {
		return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.Median, s.Q1, s.Q3, s.N)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-15s %-38s %-38s %+7.2f%% %6s  %s\n",
			r.Workload, r.Metric, cell(r.Parent), cell(r.Change), 100*r.Worse,
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
	}
}
