package leakage

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/spn"
	"repro/internal/stats"
	"repro/internal/synth"
)

var testKey = spn.KeyState{0xFEDCBA9876543210, 0xFFFF}

func buildScheme(t *testing.T, s core.Scheme) *core.Design {
	t.Helper()
	opts := core.Options{Scheme: s, Engine: synth.EngineANF}
	if s.Randomized() {
		opts.Entropy = core.EntropyPrime
	}
	return core.MustBuild(present.Spec(), opts)
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for !e.Done() {
		e.Step()
	}
	return e.Result()
}

func sameResult(t *testing.T, a, b Result) {
	t.Helper()
	if a.Fixed != b.Fixed || a.Random != b.Random || a.Discarded != b.Discarded {
		t.Fatalf("kept counts differ: %+v vs %+v", a, b)
	}
	if a.MaxAbsT != b.MaxAbsT {
		t.Fatalf("max |t| differs: %v vs %v", a.MaxAbsT, b.MaxAbsT)
	}
	for i := range a.TValues {
		if a.TValues[i] != b.TValues[i] {
			t.Fatalf("t[%d] differs: %v vs %v", i, a.TValues[i], b.TValues[i])
		}
	}
}

func TestLeakageDeterminism(t *testing.T) {
	d := buildScheme(t, core.SchemeThreeInOne)
	cfg := Config{Design: d, Key: testKey, Model: power.HammingDistance,
		Pairs: 80, Seed: 0xD5, FixedPT: 0x0123456789ABCDEF}
	sameResult(t, run(t, cfg), run(t, cfg))
}

// A drained evaluation resumed from a JSON-round-tripped snapshot must
// reproduce the uninterrupted result bit for bit — the service job's
// drain/resume contract rests on this.
func TestLeakageResumeBitIdentical(t *testing.T) {
	d := buildScheme(t, core.SchemeMaskedDup)
	cfg := Config{Design: d, Key: testKey, Model: power.HammingWeight,
		Pairs: 100, Seed: 0x5EED, FixedPT: 0x0123456789ABCDEF}

	want := run(t, cfg)

	e1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e1.Step()
	e1.Step()
	raw, err := json.Marshal(e1.State())
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}

	e2, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e2.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if e2.NextBatch() != 2 {
		t.Fatalf("restored NextBatch = %d, want 2", e2.NextBatch())
	}
	remaining := 0
	for !e2.Done() {
		e2.Step()
		remaining++
	}
	if want := e2.NumBatches() - 2; remaining != want {
		t.Fatalf("resumed run executed %d batches, want exactly the remaining %d", remaining, want)
	}
	sameResult(t, want, e2.Result())
}

func TestLeakageRestoreRejectsMismatchedState(t *testing.T) {
	d := buildScheme(t, core.SchemeThreeInOne)
	e, err := New(Config{Design: d, Key: testKey, Pairs: 32, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Restore(State{NextBatch: 99}); err == nil {
		t.Fatal("Restore accepted an out-of-range batch cursor")
	}
	if err := e.Restore(State{TTest: stats.TTestState{Samples: 3}}); err == nil {
		t.Fatal("Restore accepted a trace-length-mismatched accumulator")
	}
}

// Under an injected fault the evaluator must keep only SIFA-usable runs:
// comparator quiet AND released ciphertext equal to the fault-free
// reference.
func TestLeakageFaultFilterDiscardsDetectedRuns(t *testing.T) {
	d := buildScheme(t, core.SchemeThreeInOne)
	f := fault.At(d.SboxInputNet(core.BranchActual, 2, 1), fault.StuckAt0, d.LastRoundCycle())
	cfg := Config{Design: d, Key: testKey, Model: power.HammingDistance,
		Pairs: 64, Seed: 0xFA, FixedPT: 0x0123456789ABCDEF, Faults: []fault.Fault{f}}
	res := run(t, cfg)
	if res.Discarded == 0 {
		t.Fatal("stuck-at fault on a λ-diverse design never discarded a run")
	}
	if got := res.Fixed + res.Random + res.Discarded; got != 2*res.Pairs {
		t.Fatalf("kept %d + %d and discarded %d traces, want %d total",
			res.Fixed, res.Random, res.Discarded, 2*res.Pairs)
	}
	if res.Fixed == 0 || res.Random == 0 {
		t.Fatal("filtering emptied a class — stuck-at-0 should be data-dependent")
	}
}

func TestLeakageNewRejectsBadConfig(t *testing.T) {
	d := buildScheme(t, core.SchemeUnprotected)
	if _, err := New(Config{Design: nil, Pairs: 1}); err == nil {
		t.Fatal("New accepted a nil design")
	}
	if _, err := New(Config{Design: d, Pairs: 0}); err == nil {
		t.Fatal("New accepted a zero pair count")
	}
	// Over the cap, the batch count (Pairs+31)/32 would overflow at
	// math.MaxInt and the evaluation would finish at once with no traces.
	for _, pairs := range []int{MaxPairs + 1, math.MaxInt} {
		if _, err := New(Config{Design: d, Pairs: pairs}); err == nil {
			t.Fatalf("New accepted %d pairs, over the cap of %d", pairs, MaxPairs)
		}
	}
	ev, err := New(Config{Design: d, Pairs: MaxPairs})
	if err != nil {
		t.Fatalf("New rejected the cap itself: %v", err)
	}
	if ev.NumBatches() != MaxPairs/PairsPerBatch {
		t.Fatalf("%d batches at the cap, want %d", ev.NumBatches(), MaxPairs/PairsPerBatch)
	}
}

// The headline separation, in miniature: the unmasked duplicated core
// fails fixed-vs-random TVLA while the masked variant stays under the
// threshold at the same trace count. (EXPERIMENTS.md reproduces this at
// full scale.)
func TestLeakageMaskedVsUnmaskedSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("trace collection is slow")
	}
	cfg := Config{Key: testKey, Model: power.HammingDistance,
		Pairs: 256, Seed: 0x77A, FixedPT: 0x0123456789ABCDEF}
	cfg.Design = buildScheme(t, core.SchemeThreeInOne)
	if res := run(t, cfg); !res.Leaks {
		t.Fatalf("unmasked three-in-one passed TVLA at %d pairs (max |t| = %.1f)", cfg.Pairs, res.MaxAbsT)
	}
	cfg.Design = buildScheme(t, core.SchemeMaskedDup)
	if res := run(t, cfg); res.Leaks {
		t.Fatalf("masked core failed first-order TVLA (max |t| = %.1f)", res.MaxAbsT)
	}
}

// With observability enabled, an evaluation counts its batches, traces and
// discards on the registry; PairsDone tracks checkpoint progress in pairs.
func TestLeakageObservabilityCounters(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObservability(reg)
	defer EnableObservability(nil)

	d := buildScheme(t, core.SchemeThreeInOne)
	ev, err := New(Config{
		Design: d, Key: testKey, Model: power.HammingDistance,
		Pairs: 2*PairsPerBatch + 3, Seed: 5, FixedPT: 0xABCD,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.PairsDone() != 0 {
		t.Fatalf("fresh evaluator PairsDone = %d", ev.PairsDone())
	}
	ev.Step()
	if ev.PairsDone() != PairsPerBatch {
		t.Fatalf("after one batch PairsDone = %d, want %d", ev.PairsDone(), PairsPerBatch)
	}
	for !ev.Done() {
		ev.Step()
	}
	if ev.PairsDone() != 2*PairsPerBatch+3 {
		t.Fatalf("completed PairsDone = %d, want %d", ev.PairsDone(), 2*PairsPerBatch+3)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	metric := func(name string) int {
		for _, line := range strings.Split(exposition, "\n") {
			if !strings.HasPrefix(line, name) || strings.HasPrefix(line, name+"_") {
				continue
			}
			f := strings.Fields(line)
			n, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				t.Fatalf("bad metric line %q", line)
			}
			return n
		}
		t.Fatalf("metric %s missing from exposition", name)
		return 0
	}
	if got := metric("scone_leakage_batches_total"); got != ev.NumBatches() {
		t.Errorf("batches counter %d, want %d", got, ev.NumBatches())
	}
	if got := metric("scone_leakage_traces_total"); got != 2*(2*PairsPerBatch+3) {
		t.Errorf("traces counter %d, want %d", got, 2*(2*PairsPerBatch+3))
	}
	if got := metric("scone_leakage_discarded_total"); got != 0 {
		t.Errorf("discarded counter %d on a fault-free run", got)
	}
}
