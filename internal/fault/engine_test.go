package fault

import (
	"runtime"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/synth"
)

func TestEngineConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  EngineConfig
		ok   bool
	}{
		{"zero", EngineConfig{}, true},
		{"default", DefaultEngineConfig(), true},
		{"width-1", EngineConfig{LaneWords: 1}, true},
		{"width-2", EngineConfig{LaneWords: 2}, true},
		{"width-4", EngineConfig{LaneWords: 4}, true},
		{"width-3", EngineConfig{LaneWords: 3}, false},
		{"width-8", EngineConfig{LaneWords: 8}, false},
		{"width-negative", EngineConfig{LaneWords: -1}, false},
		{"parallelism-negative", EngineConfig{Parallelism: -2}, false},
		{"full", EngineConfig{LaneWords: 4, Parallelism: 8}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestEngineConfigLanes(t *testing.T) {
	if got := (EngineConfig{}).Lanes(); got != 64 {
		t.Errorf("zero config Lanes() = %d, want 64", got)
	}
	if got := (EngineConfig{LaneWords: 4}).Lanes(); got != 256 {
		t.Errorf("width-4 Lanes() = %d, want 256", got)
	}
}

func TestEngineConfigResolveDefaults(t *testing.T) {
	r, err := EngineConfig{}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.laneWords != 1 {
		t.Errorf("laneWords = %d, want 1", r.laneWords)
	}
	if want := runtime.GOMAXPROCS(0); r.workers != want {
		t.Errorf("workers = %d, want GOMAXPROCS %d", r.workers, want)
	}

	// Explicit parallelism is honoured.
	r, err = EngineConfig{Parallelism: 5}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.workers != 5 {
		t.Errorf("workers = %d, want 5", r.workers)
	}

	if _, err := (EngineConfig{LaneWords: 3}).resolve(); err == nil {
		t.Error("resolve accepted lane width 3")
	}
}

// TestEngineConfigMatrixBitIdentity is the tentpole's determinism
// acceptance: every (lane width, parallelism) execution configuration must
// produce the identical Result and the identical observer-visible run
// stream as the classic width-1 single-worker engine, for all three entropy
// variants. The run count is deliberately not a multiple of 64 so the final
// batch is partial inside a wide lane group.
func TestEngineConfigMatrixBitIdentity(t *testing.T) {
	entropies := []struct {
		name    string
		entropy core.Entropy
	}{
		{"prime", core.EntropyPrime},
		{"per-round", core.EntropyPerRound},
		{"per-sbox", core.EntropyPerSbox},
	}
	widths := []int{1, 2, 4}
	parallelisms := []int{1, 2, runtime.NumCPU()}

	for _, e := range entropies {
		t.Run(e.name, func(t *testing.T) {
			d, err := core.Build(present.Spec(), core.Options{
				Scheme:  core.SchemeThreeInOne,
				Entropy: e.entropy,
				Engine:  synth.EngineANF,
			})
			if err != nil {
				t.Fatal(err)
			}
			net := d.SboxInputNet(core.BranchActual, 13, 2)
			campaign := func(cfg EngineConfig) *Campaign {
				return &Campaign{
					Design: d,
					Key:    goldenKey,
					Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
					Runs:   700,
					Seed:   0x5C09E2021,
					Engine: cfg,
				}
			}

			ref, refDigest := hashRuns(t, campaign(EngineConfig{LaneWords: 1, Parallelism: 1}))
			if ref.Total != 700 {
				t.Fatalf("reference total = %d, want 700", ref.Total)
			}
			for _, w := range widths {
				for _, p := range parallelisms {
					cfg := EngineConfig{LaneWords: w, Parallelism: p}
					res, digest := hashRuns(t, campaign(cfg))
					if res != ref {
						t.Errorf("W=%d p=%d: result %v differs from reference %v", w, p, res, ref)
					}
					if digest != refDigest {
						t.Errorf("W=%d p=%d: run-stream digest %#x differs from %#x", w, p, digest, refDigest)
					}
				}
			}
		})
	}
}

// TestEngineConfigGoldenDigestsUnchanged re-runs the pinned golden campaigns
// at the widest, most parallel configuration: the historic digests produced
// by the original interpreted evaluator must survive verbatim.
func TestEngineConfigGoldenDigestsUnchanged(t *testing.T) {
	cases := []struct {
		name       string
		scheme     core.Scheme
		wantCounts [outcomeCount]int
		wantDigest uint64
	}{
		{"naive-dup", core.SchemeNaiveDup, [outcomeCount]int{498, 502, 0}, 0x3b65c928c52a21d2},
		{"three-in-one", core.SchemeThreeInOne, [outcomeCount]int{492, 508, 0}, 0xa188d67a405a7a39},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := goldenDesign(t, tc.scheme)
			net := d.SboxInputNet(core.BranchActual, 13, 2)
			camp := Campaign{
				Design: d,
				Key:    goldenKey,
				Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
				Runs:   1000,
				Seed:   0x5C09E2021,
				Engine: EngineConfig{LaneWords: 4, Parallelism: 8},
			}
			res, digest := hashRuns(t, &camp)
			if res.Counts != tc.wantCounts {
				t.Errorf("counts = %v, want %v", res.Counts, tc.wantCounts)
			}
			if digest != tc.wantDigest {
				t.Errorf("run-stream digest = %#x, want %#x", digest, tc.wantDigest)
			}
		})
	}
}

// TestEngineConfigInvalidRejected proves the executor validates before
// instantiating any engine.
func TestEngineConfigInvalidRejected(t *testing.T) {
	d := goldenDesign(t, core.SchemeNaiveDup)
	net := d.SboxInputNet(core.BranchActual, 0, 0)
	camp := Campaign{
		Design: d,
		Key:    goldenKey,
		Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
		Runs:   64,
		Seed:   1,
		Engine: EngineConfig{LaneWords: 3},
	}
	if _, err := camp.Execute(nil); err == nil {
		t.Fatal("Execute accepted lane width 3")
	}
}
