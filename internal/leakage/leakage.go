// Package leakage is the combined masking+fault leakage evaluator: a
// fixed-vs-random TVLA assessment (Welch's t-test per clock cycle over
// power traces) of one synthesised core, optionally run under injected
// faults with SIFA-style ineffective-run filtering. It is the engine
// behind the service's "leakage" job kind and measures the claim the
// masked scheme variant (core.SchemeMaskedDup) exists for: the unmasked
// duplicated cores leak the plaintext class massively (they are fault
// countermeasures, not SCA countermeasures), while the masked variant
// passes first-order TVLA with unchanged fault-detection behaviour.
//
// Determinism contract (the same one fault campaigns follow): batch b
// draws every random value — plaintexts, garbage, λ, and for masked
// designs the mask port values — from a generator reseeded with
// (Seed, b), in a fixed per-lane order. The evaluator may therefore stop
// at any batch boundary, snapshot its accumulator (State), and resume on
// a fresh process bit-identically to an uninterrupted run.
package leakage

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/stats"
)

// PairsPerBatch is the number of fixed/random trace pairs one 64-lane
// simulator batch produces: even lanes carry the fixed plaintext (class
// 0), odd lanes a random one (class 1).
const PairsPerBatch = sim.Lanes / 2

// MaxPairs caps an evaluation's pair count at 2^25 pairs: 2^26 traces,
// the same simulation budget as a campaign's 2^26-run cap in the service.
// It keeps the batch count, and every pair count derived from it, far
// from integer overflow.
const MaxPairs = 1 << 25

// batchGamma derives batch b's seed as Seed ^ (b+1)*batchGamma — the
// same splitmix golden-gamma derivation the campaign engine uses.
const batchGamma = 0x9E3779B97F4A7C15

// Config parameterises one evaluation.
type Config struct {
	// Design is the built core under assessment.
	Design *core.Design
	// Key is the encryption key.
	Key spn.KeyState
	// Model selects the power model (Hamming distance or weight).
	Model power.Model
	// Pairs is the number of fixed/random trace pairs to collect
	// (before fault filtering), in 1..MaxPairs.
	Pairs int
	// Seed drives all randomness, batch-deterministically.
	Seed uint64
	// FixedPT is the fixed class's plaintext.
	FixedPT uint64
	// Faults, when non-empty, are injected into every run; lanes whose
	// fault was NOT ineffective (comparator fired, or the released
	// ciphertext differs from the fault-free reference) are discarded
	// before the t-test — the SIFA adversary's trace selection, which is
	// exactly the combined power+fault setting the paper's Section
	// IV-B-2 claim concerns.
	Faults []fault.Fault
}

// State is the serialisable mid-flight state of an evaluation. Batches
// are (Seed, batch)-deterministic, so the next batch index plus the
// t-test accumulator resume the evaluation bit-identically.
type State struct {
	NextBatch int              `json:"next_batch"`
	Discarded int              `json:"discarded"`
	TTest     stats.TTestState `json:"ttest"`
}

// Result is a finished (or in-flight) evaluation's outcome.
type Result struct {
	// Model names the power model.
	Model string
	// Pairs is the configured pair count; Fixed/Random the traces kept
	// per class after fault filtering; Discarded the filtered lanes.
	Pairs, Fixed, Random, Discarded int
	// Samples is the trace length in cycles.
	Samples int
	// TValues is Welch's t per cycle; MaxAbsT its largest magnitude;
	// Leaks the TVLA verdict (|t| > 4.5 anywhere).
	TValues []float64
	MaxAbsT float64
	Leaks   bool
}

// Evaluator runs one configured evaluation batch by batch.
type Evaluator struct {
	cfg   Config
	r     *core.Runner
	probe *power.Probe
	// ref classifies faulted runs against the fault-free cipher.
	ref *spn.RefEncrypter
	gen *rng.Xoshiro
	tt  *stats.TTest

	nextBatch int
	batches   int
	discarded int

	// Per-batch draw scratch.
	pts, garbage []uint64
	lamCycles    [][]uint64
	masks        *core.MaskSet
}

// New builds an evaluator. The design is compiled through
// sim.CompileCached, which memoises the program on the design's module;
// faults are installed on the evaluator's private runner, so concurrent
// evaluations of one design do not interfere.
func New(cfg Config) (*Evaluator, error) {
	if cfg.Design == nil {
		return nil, fmt.Errorf("leakage: nil design")
	}
	if cfg.Pairs <= 0 || cfg.Pairs > MaxPairs {
		return nil, fmt.Errorf("leakage: need a pair count in 1..%d (got %d)", MaxPairs, cfg.Pairs)
	}
	r, err := core.NewRunner(cfg.Design)
	if err != nil {
		return nil, err
	}
	d := cfg.Design
	e := &Evaluator{
		cfg:     cfg,
		r:       r,
		gen:     rng.NewXoshiro(0),
		tt:      stats.NewTTest(d.CyclesPerRun()),
		batches: (cfg.Pairs + PairsPerBatch - 1) / PairsPerBatch,
		pts:     make([]uint64, sim.Lanes),
		garbage: make([]uint64, sim.Lanes),
	}
	if len(cfg.Faults) > 0 {
		r.S.SetInjector(fault.NewInjector(cfg.Faults...))
		e.ref = d.Spec.NewRefEncrypter(cfg.Key)
	}
	if d.LambdaWidth > 0 {
		e.lamCycles = make([][]uint64, d.CyclesPerRun())
		for i := range e.lamCycles {
			e.lamCycles[i] = make([]uint64, sim.Lanes)
		}
	}
	if d.Opts.Scheme.Masked() {
		e.masks = &core.MaskSet{
			StateEven: make([]uint64, sim.Lanes),
			StateOdd:  make([]uint64, sim.Lanes),
			Lambda:    make([]uint64, sim.Lanes),
		}
		if d.MaskPoolWidth > 0 {
			e.masks.RandEven = make([]uint64, sim.Lanes)
			e.masks.RandOdd = make([]uint64, sim.Lanes)
		}
		r.Masks = e.masks
	}
	// The probe attaches last so construction errors leave no hook.
	e.probe = power.Attach(r, cfg.Model)
	return e, nil
}

// NumBatches is the evaluation's total batch count.
func (e *Evaluator) NumBatches() int { return e.batches }

// NextBatch is the index of the next batch Step will run.
func (e *Evaluator) NextBatch() int { return e.nextBatch }

// Done reports whether every batch has been accumulated.
func (e *Evaluator) Done() bool { return e.nextBatch >= e.batches }

// PairsDone is the number of pairs simulated so far (pair-granular
// progress; filtering does not reduce it).
func (e *Evaluator) PairsDone() int {
	return min(e.nextBatch*PairsPerBatch, e.cfg.Pairs)
}

// State snapshots the evaluation at the current batch boundary.
func (e *Evaluator) State() State {
	return State{NextBatch: e.nextBatch, Discarded: e.discarded, TTest: e.tt.State()}
}

// Restore rewinds or fast-forwards the evaluator to a snapshot taken by
// State on an identically configured evaluation.
func (e *Evaluator) Restore(s State) error {
	if s.NextBatch < 0 || s.NextBatch > e.batches {
		return fmt.Errorf("leakage: checkpoint batch %d outside 0..%d", s.NextBatch, e.batches)
	}
	if s.TTest.Samples != 0 && s.TTest.Samples != e.cfg.Design.CyclesPerRun() {
		return fmt.Errorf("leakage: checkpoint trace length %d != design's %d cycles",
			s.TTest.Samples, e.cfg.Design.CyclesPerRun())
	}
	e.nextBatch = s.NextBatch
	e.discarded = s.Discarded
	if s.TTest.Samples == 0 {
		e.tt = stats.NewTTest(e.cfg.Design.CyclesPerRun())
	} else {
		e.tt = stats.RestoreTTest(s.TTest)
	}
	return nil
}

// Step simulates the next batch and folds its traces into the t-test.
// It is a no-op once Done.
func (e *Evaluator) Step() {
	if e.Done() {
		return
	}
	sp := startBatch()
	b := e.nextBatch
	d := e.cfg.Design
	pairs := e.cfg.Pairs - b*PairsPerBatch
	if pairs > PairsPerBatch {
		pairs = PairsPerBatch
	}
	n := 2 * pairs

	// Batch draw stream, in the campaign engine's order: plaintext and
	// garbage interleaved per lane, then λ (cycle-major for fresh-per-
	// cycle entropy), then for masked designs the mask port values per
	// lane (state-even, state-odd, refresh-pool-even, refresh-pool-odd,
	// λ-mask). The fixed class overrides even lanes AFTER drawing, so
	// the stream layout is class-independent.
	e.gen.Reseed(e.cfg.Seed ^ (uint64(b)+1)*batchGamma)
	for i := 0; i < n; i++ {
		e.pts[i] = e.gen.Uint64()
		e.garbage[i] = e.gen.Uint64()
	}
	var lf core.LambdaFunc
	if d.LambdaWidth > 0 {
		if d.Opts.Entropy == core.EntropyPrime {
			vals := e.lamCycles[0][:n]
			for i := range vals {
				vals[i] = e.gen.Bits(d.LambdaWidth)
			}
			lf = core.LambdaConst(vals)
		} else {
			for _, cyc := range e.lamCycles {
				vals := cyc[:n]
				for i := range vals {
					vals[i] = e.gen.Bits(d.LambdaWidth)
				}
			}
			lf = func(c int) []uint64 { return e.lamCycles[c][:n] }
		}
	}
	if e.masks != nil {
		ms := e.masks
		for i := 0; i < n; i++ {
			ms.StateEven[i] = e.gen.Bits(d.Spec.BlockBits)
			ms.StateOdd[i] = e.gen.Bits(d.Spec.BlockBits)
			if d.MaskPoolWidth > 0 {
				ms.RandEven[i] = e.gen.Bits(d.MaskPoolWidth)
				ms.RandOdd[i] = e.gen.Bits(d.MaskPoolWidth)
			}
			ms.Lambda[i] = e.gen.Bits(1)
		}
	}
	for i := 0; i < n; i += 2 {
		e.pts[i] = e.cfg.FixedPT
	}

	e.probe.BeginBatch()
	res := e.r.EncryptBatchReuse(e.pts[:n], e.cfg.Key, e.garbage[:n], lf)
	traces := e.probe.Traces()
	kept := 0
	for i := 0; i < n; i++ {
		if e.ref != nil && (res.Fault[i] || res.CT[i] != e.ref.Encrypt(e.pts[i])) {
			e.discarded++
			continue
		}
		e.tt.Add(i&1, traces[i])
		kept++
	}
	e.nextBatch++
	sp.end(kept, n-kept)
}

// Result summarises the accumulated t-test.
func (e *Evaluator) Result() Result {
	fixed, random := e.tt.Count()
	maxT := e.tt.MaxAbsT()
	return Result{
		Model:     e.cfg.Model.String(),
		Pairs:     e.cfg.Pairs,
		Fixed:     fixed,
		Random:    random,
		Discarded: e.discarded,
		Samples:   e.cfg.Design.CyclesPerRun(),
		TValues:   e.tt.TValues(),
		MaxAbsT:   maxT,
		Leaks:     maxT > stats.LeakageThreshold,
	}
}
