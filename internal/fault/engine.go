package fault

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spn"
)

// EngineConfig is the execution configuration of the campaign engine: lane
// width and worker parallelism. It is pure execution policy — every
// configuration computes bit-identical results from the same (Design, Key,
// Faults, Runs, Seed), and none of its fields enter a campaign's content
// address, so cached batches replay across configurations.
//
// The zero value selects the defaults (single-word 64-lane passes,
// GOMAXPROCS workers). Validate rejects impossible configurations; the
// executor validates before instantiating any engine, and the sconevet
// enginecfg pass keeps direct engine construction out of the rest of the
// tree.
type EngineConfig struct {
	// LaneWords selects the simulator word width W: one pass evaluates
	// W×64 lanes, executing W consecutive 64-run batches together. Wider
	// words amortise instruction dispatch over SIMD-shaped inner loops.
	// 0 means 1; valid widths are 1, 2 and 4.
	LaneWords int
	// Parallelism bounds the worker goroutines sharing the batch range
	// (0 = GOMAXPROCS). Workers take one lane group at a time in batch
	// order, and the reorder buffer restores that order, so scheduling
	// never reorders results.
	Parallelism int
}

// DefaultEngineConfig returns the explicit form of the zero-value
// configuration: width 1, GOMAXPROCS parallelism.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{LaneWords: 1}
}

// Validate rejects configurations the engine cannot run: an unsupported
// lane width or negative parallelism.
func (c EngineConfig) Validate() error {
	if c.LaneWords != 0 && !sim.ValidLaneWords(c.LaneWords) {
		return fmt.Errorf("fault: engine lane words must be 1, 2 or 4 (got %d)", c.LaneWords)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("fault: engine parallelism must be non-negative (got %d)", c.Parallelism)
	}
	return nil
}

// Lanes returns the number of parallel simulation lanes one engine pass
// evaluates under this configuration (sim.Lanes × effective LaneWords).
func (c EngineConfig) Lanes() int {
	w := c.LaneWords
	if w == 0 {
		w = 1
	}
	return w * sim.Lanes
}

// resolvedEngine is a validated EngineConfig with every default applied.
type resolvedEngine struct {
	laneWords int // simulator word width W (1, 2 or 4)
	workers   int // worker goroutine count
}

// resolve validates the configuration and applies defaults.
func (c EngineConfig) resolve() (resolvedEngine, error) {
	if err := c.Validate(); err != nil {
		return resolvedEngine{}, err
	}
	r := resolvedEngine{laneWords: c.LaneWords, workers: c.Parallelism}
	if r.laneWords == 0 {
		r.laneWords = 1
	}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	return r, nil
}

// groupRunner executes lane groups: up to LaneWords consecutive 64-run
// batches evaluated in one simulator pass. The campaign executor holds one
// per worker, behind this interface so the worker loop stays width-agnostic
// while each width gets its own compiled instantiation.
type groupRunner interface {
	// runGroup executes batches first..first+g-1, filling outs[j] (whose
	// batch index is pre-set to first+j) with batch j's tallies — and,
	// when retain is set, its Run records in lane order.
	runGroup(first, g int, outs []batchOut, retain bool)
}

// newGroupRunner dispatches the validated lane width to its engine
// instantiation.
func (c *Campaign) newGroupRunner(laneWords int, simD *core.Design, compiled *sim.Compiled, inj *Injector) groupRunner {
	switch laneWords {
	case 2:
		return newWideRunner[sim.Word2](c, simD, compiled, inj)
	case 4:
		return newWideRunner[sim.Word4](c, simD, compiled, inj)
	default:
		return newWideRunner[sim.Word1](c, simD, compiled, inj)
	}
}

// wideRunner executes lane groups on a width-W engine. All per-batch
// working state — plaintext/garbage draws, per-cycle λ words, the
// generators themselves — lives in scratch buffers allocated once per
// worker, which is what eliminates the per-round/per-sbox variants'
// residual per-run allocations.
type wideRunner[W sim.Word] struct {
	c *Campaign
	r *core.EngineRunner[W]
	// ref is the campaign key's precomputed reference encrypter;
	// classification calls it once per run, so the expanded schedule and
	// fused substitution/linear tables are what keep the reference off the
	// critical path.
	ref *spn.RefEncrypter

	// gens[j] is lane group j's generator, reseeded per batch from
	// (Seed, batch index) — the same derivation, and therefore the same
	// draw stream, as a single-batch pass.
	gens []*rng.Xoshiro

	pts, garbage []uint64
	// λ scratch: lambda0 backs the prime variant's constant word;
	// lamCycles[cyc] backs the fresh-per-cycle variants, filled lazily
	// per group (lamFilled marks which cycles have been drawn).
	lambda0   []uint64
	lamCycles [][]uint64
	lamFilled []bool
	// masks backs the masked schemes' per-lane mask port draws. The draws
	// are appended AFTER the unmasked stream (pt/garbage interleaved, then
	// λ), so unmasked schemes' draw streams — and therefore every stored
	// campaign digest — are unchanged by the masked variant's existence.
	masks *core.MaskSet
}

func newWideRunner[W sim.Word](c *Campaign, simD *core.Design, compiled *sim.Compiled, inj *Injector) *wideRunner[W] {
	r := core.NewWideRunnerFrom[W](simD, compiled)
	r.S.SetInjector(inj)
	lanes := r.S.LaneCount()
	wr := &wideRunner[W]{c: c, r: r, ref: c.Design.Spec.NewRefEncrypter(c.Key)}
	wr.gens = make([]*rng.Xoshiro, r.S.LaneWords())
	for j := range wr.gens {
		wr.gens[j] = rng.NewXoshiro(0)
	}
	wr.pts = make([]uint64, lanes)
	wr.garbage = make([]uint64, lanes)
	if c.Design.LambdaWidth > 0 {
		wr.lambda0 = make([]uint64, lanes)
		cycles := c.Design.Spec.Rounds + 1
		back := make([]uint64, cycles*lanes)
		wr.lamCycles = make([][]uint64, cycles)
		for i := range wr.lamCycles {
			wr.lamCycles[i] = back[i*lanes : (i+1)*lanes]
		}
		wr.lamFilled = make([]bool, cycles)
	}
	if c.Design.Opts.Scheme.Masked() {
		wr.masks = &core.MaskSet{
			StateEven: make([]uint64, lanes),
			StateOdd:  make([]uint64, lanes),
			Lambda:    make([]uint64, lanes),
		}
		if c.Design.MaskPoolWidth > 0 {
			wr.masks.RandEven = make([]uint64, lanes)
			wr.masks.RandOdd = make([]uint64, lanes)
		}
	}
	return wr
}

// runGroup executes batches first..first+g-1 (g ≤ W) in one simulator
// pass. Batch j occupies lanes j*64..j*64+63 and draws every random value
// from its own (Seed, batch)-derived generator in the single-batch order —
// plaintext/garbage interleaved, then λ per cycle on first touch — so each
// lane computes bit-identically to the classic one-batch-per-pass engine
// regardless of width, grouping or scheduling. Only the campaign's final
// batch can be partial, and it is always last in its group, so active
// lanes stay contiguous.
func (wr *wideRunner[W]) runGroup(first, g int, outs []batchOut, retain bool) {
	c := wr.c
	d := c.Design
	total := 0
	for j := 0; j < g; j++ {
		gen := wr.gens[j]
		gen.Reseed(c.Seed ^ (uint64(first+j)+1)*0x9E3779B97F4A7C15)
		base := j * sim.Lanes
		n := c.BatchRuns(first + j)
		for i := 0; i < n; i++ {
			wr.pts[base+i] = gen.Uint64()
			wr.garbage[base+i] = gen.Uint64()
		}
		total = base + n
	}

	drawLambda := func(vals []uint64) {
		for j := 0; j < g; j++ {
			base := j * sim.Lanes
			n := c.BatchRuns(first + j)
			gen := wr.gens[j]
			for i := 0; i < n; i++ {
				vals[base+i] = gen.Bits(d.LambdaWidth)
			}
		}
	}

	var lf core.LambdaFunc
	var lambda0 []uint64
	if d.LambdaWidth > 0 {
		if d.Opts.Entropy == core.EntropyPrime {
			vals := wr.lambda0[:total]
			drawLambda(vals)
			lambda0 = vals
			lf = core.LambdaConst(vals)
		} else {
			// Fresh λ per cycle, deterministic in the cycle index,
			// memoised in per-cycle scratch (cycle 0 pre-drawn so it can
			// be recorded). Each lane group draws from its own generator,
			// replaying the single-batch per-cycle stream.
			for i := range wr.lamFilled {
				wr.lamFilled[i] = false
			}
			lf = func(cyc int) []uint64 {
				vals := wr.lamCycles[cyc][:total]
				if !wr.lamFilled[cyc] {
					drawLambda(vals)
					wr.lamFilled[cyc] = true
				}
				return vals
			}
			lambda0 = lf(0)
		}
	}

	if wr.masks != nil {
		// Masked schemes extend each batch's draw stream with the mask
		// port values, per lane in fixed order: state-even, state-odd,
		// refresh-pool-even, refresh-pool-odd, λ-mask. Masked implies
		// EntropyPrime, so the eager λ draw above has already consumed its
		// part of the stream.
		ms := wr.masks
		for j := 0; j < g; j++ {
			base := j * sim.Lanes
			n := c.BatchRuns(first + j)
			gen := wr.gens[j]
			for i := 0; i < n; i++ {
				ms.StateEven[base+i] = gen.Bits(d.Spec.BlockBits)
				ms.StateOdd[base+i] = gen.Bits(d.Spec.BlockBits)
				if d.MaskPoolWidth > 0 {
					ms.RandEven[base+i] = gen.Bits(d.MaskPoolWidth)
					ms.RandOdd[base+i] = gen.Bits(d.MaskPoolWidth)
				}
				ms.Lambda[base+i] = gen.Bits(1)
			}
		}
		wr.r.Masks = ms
	}

	res := wr.r.EncryptBatchReuse(wr.pts[:total], c.Key, wr.garbage[:total], lf)
	correcting := d.Opts.Scheme.Correcting()
	for j := 0; j < g; j++ {
		base := j * sim.Lanes
		n := c.BatchRuns(first + j)
		out := &outs[j]
		if retain {
			out.runs = make([]Run, 0, n)
		}
		for i := 0; i < n; i++ {
			lane := base + i
			// The reference is always the clean cipher — under a
			// persistent fault the simulated design computes with the
			// corrupted table while classification compares against what
			// the device should have produced.
			ref := wr.ref.Encrypt(wr.pts[lane])
			r := Run{PT: wr.pts[lane], CT: res.CT[lane], RefCT: ref}
			if lambda0 != nil {
				r.Lambda0 = lambda0[lane]
			}
			switch {
			case res.Fault[lane] && correcting && res.CT[lane] == ref:
				r.Outcome = OutcomeCorrected
			case res.Fault[lane]:
				r.Outcome = OutcomeDetected
			case res.CT[lane] == ref:
				r.Outcome = OutcomeIneffective
			default:
				r.Outcome = OutcomeEffective
			}
			out.res.Total++
			out.res.Counts[r.Outcome]++
			if retain {
				out.runs = append(out.runs, r)
			}
		}
	}
}
