package scone

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablations DESIGN.md calls out and raw-throughput benchmarks of
// the substrates. `go test -bench=. -benchmem` regenerates every number
// EXPERIMENTS.md records (benchmarks use reduced run counts; the cmd/
// tools run the full 80k-run campaigns).

import (
	"runtime"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/synth"
)

var benchKey = spn.KeyState{0x0123456789ABCDEF, 0x8421}

// --- Table I: the inverted gate duals (definitional sanity + throughput) --

func BenchmarkTableIInvertedGates(b *testing.B) {
	// Exhaustively re-verify Table I per iteration, then burn the duals
	// on wide words; failure panics the benchmark.
	var sink uint64
	for i := 0; i < b.N; i++ {
		for x0 := uint64(0); x0 < 2; x0++ {
			for x1 := uint64(0); x1 < 2; x1++ {
				if core.InvXOR(^x0, ^x1)&1 != ^(x0^x1)&1 {
					b.Fatal("Table I(a) violated")
				}
				if core.InvAND(^x0, ^x1)&1 != ^(x0&x1)&1 {
					b.Fatal("Table I(b) violated")
				}
			}
		}
		sink += core.InvXOR(uint64(i), sink) ^ core.InvAND(sink, uint64(i))
	}
	_ = sink
}

// --- Figure 4: SIFA bias campaign ----------------------------------------

func BenchmarkFig4SIFACampaign(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Naive.Biased || res.ThreeInOne.Biased {
			b.Fatalf("Figure 4 shape lost: naive biased=%v, ours biased=%v",
				res.Naive.Biased, res.ThreeInOne.Biased)
		}
	}
	b.ReportMetric(float64(2*cfg.Runs), "sim-runs/op")
}

// --- Figure 5: identical-fault DFA campaign -------------------------------

func BenchmarkFig5IdenticalDFACampaign(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Naive.Campaign.Effective() == 0 || res.ThreeInOne.Campaign.Effective() != 0 {
			b.Fatalf("Figure 5 shape lost: naive escapes=%d, ours escapes=%d",
				res.Naive.Campaign.Effective(), res.ThreeInOne.Campaign.Effective())
		}
	}
	b.ReportMetric(float64(2*cfg.Runs), "sim-runs/op")
}

// --- Table II: full-core area ---------------------------------------------

func BenchmarkTableIIArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := experiments.RunTableII(synth.EngineANF)
		naive, ours := t2.Rows[0].Report, t2.Rows[1].Report
		if naive.Sequential != ours.Sequential {
			b.Fatalf("non-combinational GE must match: %v vs %v", naive.Sequential, ours.Sequential)
		}
		b.ReportMetric(t2.Rows[1].Ratio, "overhead-ratio")
	}
}

// --- Table III: duplicated S-box layer area --------------------------------

func BenchmarkTableIIIArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3 := experiments.RunTableIII()
		for _, row := range t3.Rows {
			b.ReportMetric(row.Ratio, row.Cipher+"-ratio")
		}
	}
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblationEntropyVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunEntropyAblation()
		for _, row := range res.Rows {
			b.ReportMetric(row.Ratio, row.Variant.String()+"-"+row.Layout+"-ratio")
		}
	}
}

func BenchmarkAblationSynthesisEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunEngineAblation()
		for _, row := range res.Rows {
			b.ReportMetric(row.Merged, row.Cipher+"-"+row.Engine.String()+"-merged-GE")
		}
	}
}

func BenchmarkAblationMergedSbox(b *testing.B) {
	// Merged (n+1)-bit S-box versus the ACISP separate-pair layout:
	// the area the paper's third amendment trades for FTA resistance.
	lib := Nangate45()
	for i := 0; i < b.N; i++ {
		merged := core.MustBuild(present.Spec(), core.Options{
			Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime,
			Engine: synth.EngineANF, Optimize: true,
		})
		separate := core.MustBuild(present.Spec(), core.Options{
			Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime,
			Engine: synth.EngineANF, SeparateSbox: true, Optimize: true,
		})
		b.ReportMetric(lib.Area(merged.Mod).Total(), "merged-GE")
		b.ReportMetric(lib.Area(separate.Mod).Total(), "separate-GE")
	}
}

// --- Substrate throughput ----------------------------------------------------

func BenchmarkSoftwarePresentEncrypt(b *testing.B) {
	spec := present.Spec()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= spec.Encrypt(uint64(i), benchKey)
	}
	_ = sink
}

func BenchmarkSoftwareThreeInOneEncrypt(b *testing.B) {
	// The paper's remark: software cost is essentially 2x the cipher.
	cm := core.SoftwareCM{Spec: present.Spec(), Scheme: core.SchemeThreeInOne}
	var sink uint64
	for i := 0; i < b.N; i++ {
		ct, _ := cm.Encrypt(uint64(i), benchKey, uint64(i)&1, 0)
		sink ^= ct
	}
	_ = sink
}

func BenchmarkGateLevelEncryptBatch(b *testing.B) {
	d := core.MustBuild(present.Spec(), core.Options{
		Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
	r, err := core.NewRunner(d)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]uint64, 64)
	lams := make([]uint64, 64)
	gen := rng.NewXoshiro(1)
	for i := range pts {
		pts[i] = gen.Uint64()
		lams[i] = gen.Bits(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EncryptBatch(pts, benchKey, nil, core.LambdaConst(lams))
	}
	b.ReportMetric(64, "encryptions/op")
}

// BenchmarkGateEvalCompiled measures raw compiled-instruction-stream
// gate-evaluation throughput on the PRESENT three-in-one core: one full
// combinational pass over the design per iteration, 64 lanes wide. The
// gate-lanes/sec metric is the simulator's headline number; the
// compiled-vs-interpreted comparison lives in internal/sim
// (BenchmarkRandomEval*), next to the test-only reference interpreter.
func BenchmarkGateEvalCompiled(b *testing.B) {
	benchGateEval(b, (*sim.Simulator).Eval)
}

func benchGateEval(b *testing.B, eval func(*sim.Simulator)) {
	d := core.MustBuild(present.Spec(), core.Options{
		Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
	c, err := sim.CompileCached(d.Mod)
	if err != nil {
		b.Fatal(err)
	}
	s := c.NewSimulator()
	pts := make([]uint64, sim.Lanes)
	gen := rng.NewXoshiro(1)
	for i := range pts {
		pts[i] = gen.Uint64()
	}
	s.SetInput("pt", pts)
	s.SetInputBroadcast("key_lo", benchKey[0])
	s.SetInputBroadcast("load", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(s)
	}
	gates := c.NumInstructions()
	b.ReportMetric(float64(gates), "gates/op")
	b.ReportMetric(float64(gates)*sim.Lanes*float64(b.N)/b.Elapsed().Seconds(), "gate-lanes/sec")
}

func BenchmarkFaultCampaignThroughput(b *testing.B) {
	d := core.MustBuild(present.Spec(), core.Options{
		Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
	net := d.SboxInputNet(core.BranchActual, 13, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp := fault.Campaign{
			Design: d, Key: benchKey,
			Faults: []fault.Fault{fault.At(net, fault.StuckAt0, d.LastRoundCycle())},
			Runs:   2048, Seed: uint64(i + 1),
		}
		if _, err := camp.Execute(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2048, "sim-runs/op")
}

// TestCampaignAllocsPerRun pins the campaign hot path's allocation budget.
// The fresh-λ-per-cycle variants used to cost 0.8 allocs per run (per-batch
// generators and λ slices); the per-worker scratch engine must keep every
// entropy variant at effectively zero.
func TestCampaignAllocsPerRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entropy core.Entropy
	}{
		{"prime", core.EntropyPrime},
		{"per-round", core.EntropyPerRound},
		{"per-sbox", core.EntropyPerSbox},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := core.MustBuild(present.Spec(), core.Options{
				Scheme: core.SchemeThreeInOne, Entropy: tc.entropy, Engine: synth.EngineANF,
			})
			net := d.SboxInputNet(core.BranchActual, 13, 2)
			const runs = 2048
			execute := func(seed uint64) {
				camp := fault.Campaign{
					Design: d, Key: benchKey,
					Faults: []fault.Fault{fault.At(net, fault.StuckAt0, d.LastRoundCycle())},
					Runs:   runs, Seed: seed,
					Engine: fault.EngineConfig{LaneWords: 1, Parallelism: 1},
				}
				if _, err := camp.Execute(nil); err != nil {
					t.Fatal(err)
				}
			}
			execute(1) // warm the compile cache
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			execute(2)
			runtime.ReadMemStats(&after)
			perRun := float64(after.Mallocs-before.Mallocs) / runs
			t.Logf("%s: %.3f allocs/run", tc.name, perRun)
			if perRun > 0.3 {
				t.Errorf("allocs/run = %.3f, want <= 0.3", perRun)
			}
		})
	}
}

func BenchmarkTRNGCorrectedBit(b *testing.B) {
	t := rng.NewRingOscillatorTRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= t.Bit()
	}
	_ = sink
}

func BenchmarkSboxSynthesisANF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.BuildSboxModules(present.Sbox, present.SboxBits, synth.EngineANF, true)
	}
}

func BenchmarkSboxSynthesisBDD8bit(b *testing.B) {
	tt := make([]uint64, 256)
	for i := range tt {
		tt[i] = uint64(i) ^ 0xA5 // cheap stand-in permutation table
	}
	for i := 0; i < b.N; i++ {
		core.BuildSboxModules(tt, 8, synth.EngineBDD, true)
	}
}
