package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// samples pairs values with seeds 1, 2, ...
func samples(vs ...float64) []sample {
	out := make([]sample, len(vs))
	for i, v := range vs {
		out[i] = sample{seed: uint64(i + 1), value: v}
	}
	return out
}

// scaled multiplies every value by f.
func scaled(f float64, vs ...float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

func TestCompareCells(t *testing.T) {
	// A steady side: spread ~1% around 100.
	steady := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	// A noisy side: spread ~30% around 100.
	noisy := []float64{70, 130, 85, 115, 100, 75, 125, 90, 110, 100}
	higher := metricDef{Name: "runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"same runs", higher, steady, steady, verdictUnchanged},
		{"worse within bound", higher, steady, scaled(0.95, steady...), verdictUnchanged},
		{"throughput drop beyond bound", higher, steady, scaled(0.85, steady...), verdictRegression},
		{"latency rise beyond bound", lower, steady, scaled(1.2, steady...), verdictRegression},
		{"latency fall is a gain", lower, steady, scaled(0.9, steady...), verdictGain},
		{"throughput rise is a gain", higher, steady, scaled(1.2, steady...), verdictGain},
		{"noisy parent leaves a small loss unresolved", higher, noisy, scaled(0.95, steady...), verdictUnresolved},
		{"noisy parent leaves a large loss unresolved", higher, noisy, scaled(0.8, noisy...), verdictUnresolved},
		{"noisy change is unresolved", lower, steady, noisy, verdictUnresolved},
		{"noisy but every change run better", higher, noisy, scaled(1.5, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140), verdictGain},
		{"noisy but every change run far worse", higher, noisy, scaled(0.5, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69), verdictRegression},
		{"gap inside the parent's spread is no gain", higher, steady, scaled(1.004, steady...), verdictUnchanged},
		{"no change runs", higher, steady, nil, verdictMissing},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := compareCells(c.def, samples(c.parent...), samples(c.change...))
			if r.Verdict != c.want {
				t.Errorf("verdict %s (worse %+.3f, wins %d/%d, parent %+v, change %+v), want %s",
					r.Verdict, r.Worse, r.Wins, r.Pairs, r.Parent, r.Change, c.want)
			}
		})
	}
}

// TestCompareGainNeedsNineInTenWins: a large median gain with only 8 of 10
// paired wins is not claimed.
func TestCompareGainNeedsNineInTenWins(t *testing.T) {
	def := metricDef{Name: "runs_per_s", Better: "higher", Bound: 0.25}
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{120, 120, 120, 120, 120, 120, 120, 120, 99, 99}
	r := compareCells(def, samples(parent...), samples(change...))
	if r.Wins != 8 || r.Pairs != 10 || r.Verdict == verdictGain {
		t.Errorf("wins %d/%d verdict %s", r.Wins, r.Pairs, r.Verdict)
	}
}

func TestCompareFailures(t *testing.T) {
	parent := []report{{Workload: "campaign", Attempted: 100}}
	for _, c := range []struct {
		failed int
		want   string
	}{{0, verdictUnchanged}, {1, verdictRegression}} {
		change := []report{{Workload: "campaign", Attempted: 100, Failed: c.failed}}
		if r := compareFailures("campaign", parent, change); r.Verdict != c.want {
			t.Errorf("%d failed: verdict %s, want %s", c.failed, r.Verdict, c.want)
		}
	}
}

// TestCompareCommand writes two sets of run reports and compares them
// through the subcommand: a 30% throughput drop on one workload is the only
// regression, and the command fails because of it.
func TestCompareCommand(t *testing.T) {
	parentDir, changeDir := t.TempDir(), t.TempDir()
	for seed := uint64(1); seed <= 5; seed++ {
		for _, w := range []string{"campaign", "sweep"} {
			rep := report{Workload: w, Seed: service.U64(seed), Correct: true, Attempted: 100, Metrics: map[string]metric{}}
			for _, def := range endToEnd {
				rep.Metrics[def.Name] = metric{Value: 100 + float64(seed)/10, Unit: def.Unit}
			}
			if err := writeReport(parentDir, rep); err != nil {
				t.Fatal(err)
			}
			if w == "sweep" {
				rep.Metrics["runs_per_s"] = metric{Value: 70, Unit: "runs/s"}
			}
			if err := writeReport(changeDir, rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A traced report is ignored: it carries no end-to-end metrics.
	if err := writeReport(changeDir, report{Workload: "campaign", Seed: 9, Trace: true, Metrics: map[string]metric{}}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := compareCmd([]string{parentDir, changeDir}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("compare = %v, want errRegression\n%s", err, out.String())
	}
	var regressions []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, verdictRegression) {
			regressions = append(regressions, strings.Join(strings.Fields(line)[:2], " "))
		}
	}
	if len(regressions) != 1 || regressions[0] != "sweep runs_per_s" {
		t.Errorf("regressions %v, want [sweep runs_per_s]\n%s", regressions, out.String())
	}
	if err := compareCmd([]string{parentDir, parentDir}, &out); err != nil {
		t.Errorf("comparing a set with itself: %v", err)
	}
	if err := compareCmd([]string{parentDir, filepath.Join(t.TempDir(), "none")}, &out); err == nil {
		t.Error("comparing against an empty directory succeeded")
	}
	if _, err := os.Stat(parentDir); err != nil {
		t.Fatal(err)
	}
}
