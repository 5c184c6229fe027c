package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes itself for every child, and in a test run
// "itself" is this binary.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[1:], os.Stdout, os.Stderr))
	}
	code := m.Run()
	if shortRuns.traceDir != "" {
		os.RemoveAll(shortRuns.traceDir)
	}
	os.Exit(code)
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// own workload and metric tables equal.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n file    %+v\n program %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer:\n file    %+v\n program %+v", bf.PerLayer, perLayer)
	}
}

// TestOpListsAreSeeded: the same seed regenerates the same op list, and
// another seed gives another.
func TestOpListsAreSeeded(t *testing.T) {
	list := func(w workload, seed uint64) []string {
		var ops []string
		for i := 0; i < 64; i++ {
			b, err := json.Marshal(w.op(seed, i))
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, string(b))
		}
		return ops
	}
	for _, w := range workloads {
		a, again, other := list(w, defaultSeed), list(w, defaultSeed), list(w, defaultSeed+1)
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: op list differs between two generations with one seed", w.name)
		}
		for i := range a {
			if a[i] == other[i] {
				t.Errorf("%s: op %d is the same under two seeds: %s", w.name, i, a[i])
			}
		}
	}
}

// TestEngineCampaignMatchesService: the benchmark's own resolution of a
// campaign request, on a design built once, is the campaign the service
// builds for the same request, for every branch and model the op lists draw.
func TestEngineCampaignMatchesService(t *testing.T) {
	designs := map[service.DesignSpec]*core.Design{}
	for i := 0; i < 3; i++ {
		for _, b := range branches {
			for _, m := range models {
				req := campaignOp(defaultSeed, i, 64)
				req.Campaign.Faults[0].Branch, req.Campaign.Faults[0].Model = b, m
				want, err := service.BuildCampaign(req.Design, req.Campaign, service.EngineDefaults{})
				if err != nil {
					t.Fatal(err)
				}
				d := designs[req.Design]
				if d == nil {
					d = want.Design
					designs[req.Design] = d
				}
				got, err := engineCampaign(d, req.Campaign)
				if err != nil {
					t.Fatal(err)
				}
				got.Design, want.Design = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s %s:\n benchmark %+v\n service   %+v", req.Design.Entropy, b, m, got, want)
				}
			}
		}
	}
}

// shortRuns runs every workload once end to end and once traced at -short
// size, shared by the tests that inspect the output.
var shortRuns struct {
	once             sync.Once
	e2e, traced      result
	traceDir         string
	e2eErr, traceErr error
}

func runShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := &shortRuns
	s.once.Do(func() {
		dir, err := os.MkdirTemp("", "sconeperf-test-")
		if err != nil {
			s.e2eErr = err
			return
		}
		s.traceDir = dir
		cfg := config{workload: "all", seed: defaultSeed, seconds: 1, short: true, traceOut: dir, golden: golden}
		s.e2e, s.e2eErr = runResult(cfg)
		cfg.trace = true
		s.traced, s.traceErr = runResult(cfg)
	})
	if s.e2eErr != nil || s.traceErr != nil {
		t.Fatalf("short runs: %v / %v", s.e2eErr, s.traceErr)
	}
}

func runResult(cfg config) (result, error) {
	var out bytes.Buffer
	if err := run(cfg, &out, os.Stderr); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}

// TestShortRunEmitsEveryMetric: a -short run of each workload reports every
// BENCHMARK.json metric with its unit — end-to-end metrics untraced (peak
// RSS coming from the re-executed child), per-layer metrics traced — and
// its outputs pass their checks, golden tallies included.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	runShort(t)
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		res  result
		defs []metricDef
	}{{shortRuns.e2e, bf.EndToEnd}, {shortRuns.traced, bf.PerLayer}} {
		if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted == 0 {
			t.Errorf("run correct=%v failed=%d attempted=%d", c.res.Correct, c.res.Failed, c.res.Attempted)
		}
		for _, w := range bf.Workloads {
			for _, def := range c.defs {
				m, ok := c.res.Metrics[w.Name+"/"+def.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", w.Name, def.Name)
				case m.Unit != def.Unit:
					t.Errorf("%s: %s unit %q, want %q", w.Name, def.Name, m.Unit, def.Unit)
				case def.Name == "peak_rss_mb" && m.Value <= 0:
					t.Errorf("%s: peak_rss_mb %g", w.Name, m.Value)
				}
			}
		}
		if want := len(bf.Workloads) * len(c.defs); len(c.res.Metrics) != want {
			t.Errorf("%d metrics reported, want %d", len(c.res.Metrics), want)
		}
	}
}

// TestTraceSpansWellFormed: every span's parent exists in the same trace,
// every child lies within its parent's interval, and the HTTP workloads'
// server spans — job routes and lease routes — join their op's trace.
func TestTraceSpansWellFormed(t *testing.T) {
	runShort(t)
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(shortRuns.traceDir, traceFile(config{workload: w.name, seed: defaultSeed})))
		if err != nil {
			t.Fatal(err)
		}
		var spans []Span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatal(err)
		}
		type key struct {
			trace string
			id    int64
		}
		byID := map[key]Span{}
		for _, s := range spans {
			k := key{s.Trace, s.Span}
			if _, dup := byID[k]; dup {
				t.Fatalf("%s: span id %d repeated in trace %s", w.name, s.Span, s.Trace)
			}
			byID[k] = s
		}
		names := map[string]bool{}
		for _, s := range spans {
			if s.End < s.Start {
				t.Errorf("%s: span %+v ends before it starts", w.name, s)
			}
			if strings.HasPrefix(s.Trace, "op") {
				names[s.Name] = true
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[key{s.Trace, s.Parent}]
			switch {
			case !ok:
				t.Errorf("%s: span %q has no parent %d in trace %s", w.name, s.Name, s.Parent, s.Trace)
			case s.Start < p.Start || s.End > p.End:
				t.Errorf("%s: span %q [%d,%d] outside its parent %q [%d,%d]", w.name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		want := map[string][]string{
			"campaign": {"op", "fault.Campaign.ExecuteBatchesFunc", "fault.batch"},
			"sweep":    {"op", "plan.New", "fault.Campaign.ExecuteBatchesFunc"},
			"tvla":     {"op", "leakage.Evaluator.Step"},
			"service":  {"op", "client.Submit", "client.Stream", "POST /v1/jobs", "GET /v1/jobs/{id}/stream"},
			"fabric":   {"op", "client.Submit", "POST /v1/jobs", "POST /v1/leases/acquire", "POST /v1/leases/{id}/complete"},
		}[w.name]
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %q span in any op trace", w.name, n)
			}
		}
	}
}

// TestFlippedGoldenFailsTheRun: a golden tally that no longer matches
// counts its op as failed, and the invocation exits non-zero after printing
// the result line.
func TestFlippedGoldenFailsTheRun(t *testing.T) {
	if len(golden["campaign"]) == 0 {
		t.Fatal("no golden tallies pinned for campaign")
	}
	flipped := map[string][]string{"campaign": append([]string(nil), golden["campaign"]...)}
	flipped["campaign"][3] = "16384/0/0/0/0"
	cfg := config{workload: "campaign", seed: defaultSeed, seconds: 0.2, short: true, golden: flipped}
	rep, err := child("run", cfg, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 1 {
		t.Fatalf("correct=%v failed=%d errors=%v, want one failed op", rep.Correct, rep.Failed, rep.Errors)
	}
	if n := workloads[0].opCount(cfg.seconds); rep.Ops != n || rep.Attempted != n {
		t.Errorf("ran %d ops, attempted %d, want the whole %d-op list", rep.Ops, rep.Attempted, n)
	}
	if !strings.Contains(rep.Errors[0], "op 3:") {
		t.Errorf("error %q does not name op 3", rep.Errors[0])
	}
	var out bytes.Buffer
	if err := finish(&out, []report{rep}); !errors.Is(err, errIncorrect) {
		t.Fatalf("finish = %v, want errIncorrect", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result line %+v", res)
	}
	if code := exitCode(errIncorrect); code != 1 {
		t.Errorf("exit code %d for incorrect outputs, want 1", code)
	}
}

// nopStack completes every op at once.
type nopStack struct{}

func (nopStack) run(context.Context, int) opResult { return opResult{runs: 1} }
func (nopStack) check() error                      { return nil }
func (nopStack) close() error                      { return nil }

// TestTimeCapFailsUnstartedOps: op lists have a fixed length; ops the time
// cap leaves unstarted are attempted and failed, never silently dropped.
func TestTimeCapFailsUnstartedOps(t *testing.T) {
	p := runOps(context.Background(), nopStack{}, 2, opIDs(0, 5), 0, time.Now().Add(time.Minute))
	if len(p.ops) != 5 || runs(p.ops) != 5 {
		t.Fatalf("ran %d ops, %d runs, want 5", len(p.ops), runs(p.ops))
	}
	p = runOps(context.Background(), nopStack{}, 2, opIDs(0, 5), 0, time.Now().Add(-time.Second))
	var rep report
	rep.unstarted(len(p.ops), 5)
	if len(p.ops) != 0 || rep.Attempted != 5 || rep.Failed != 5 || len(rep.Errors) != 1 {
		t.Errorf("past the cap: ran %d, attempted %d, failed %d, errors %v", len(p.ops), rep.Attempted, rep.Failed, rep.Errors)
	}
}

// TestRunsTimeHundredOps: every timed cell of a default-length run, and of
// a run as BENCHMARK.json makes it, rests on at least 100 ops.
func TestRunsTimeHundredOps(t *testing.T) {
	for _, seconds := range []float64{defaultSeconds, float64(readBenchmarkFile(t).RunSeconds)} {
		for _, w := range workloads {
			timed := 0
			for _, c := range w.chunks(w.opCount(seconds)) {
				timed += c[1] - c[0] - warmupOps(c[1]-c[0])
			}
			if timed < 100 {
				t.Errorf("%s at %gs: %d timed ops, want at least 100", w.name, seconds, timed)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
}
