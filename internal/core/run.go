package core

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/sim"
	"repro/internal/spn"
)

// EngineRunner drives a Design through a width-W simulation engine, one
// batch of up to S.LaneCount() encryptions at a time. It owns the engine;
// installing a fault injector on it (EngineRunner.S) makes every subsequent
// batch run under that fault. Width is an execution detail: a wide runner
// computes bit-identical per-lane results to the classic 64-lane Runner.
type EngineRunner[W sim.Word] struct {
	D *Design
	S *sim.Engine[W]
	// CycleHook, when set, is called after every clock cycle of an
	// EncryptBatch with the cycle index just executed; the side-channel
	// probe uses it to sample switching activity.
	CycleHook func(cycle int)

	// Masks supplies the per-lane mask port values of a masked design,
	// held constant for every batch until replaced. nil leaves all mask
	// ports at zero — the masked datapath degenerates to the unmasked
	// three-in-one values, which the functional tests rely on. Ignored
	// for unmasked schemes.
	Masks *MaskSet

	// Reusable read-out buffers for EncryptBatchReuse.
	ctBuf, faultBuf []uint64
	faultBits       []bool
	ptBuf, lamBuf   []uint64
}

// MaskSet holds one batch worth of per-lane mask draws for a masked design
// (each slice indexed by lane; each value uses the port's low bits). The
// runner pre-masks the plaintext with StateOdd — the load cycle writes the
// registers round 1 reads, and round 1 runs at odd parity — and offsets the
// lambda port by Lambda, so callers supply the *logical* pt and λ.
type MaskSet struct {
	// StateEven / StateOdd are the two parity-alternating state mask sets
	// (BlockBits wide).
	StateEven, StateOdd []uint64
	// RandEven / RandOdd are the parity-alternating S-box refresh pools
	// (Design.MaskPoolWidth wide; ignored when that width is 0).
	RandEven, RandOdd []uint64
	// Lambda is the 1-bit mask of the λ share pair.
	Lambda []uint64
}

// Runner is the classic 64-lane runner; all pre-width-configuration call
// sites use this instantiation.
type Runner = EngineRunner[sim.Word1]

// NewRunner compiles the design (through sim.CompileCached, which memoises
// the program on the design's module) and creates a simulator for it.
func NewRunner(d *Design) (*Runner, error) {
	c, err := sim.CompileCached(d.Mod)
	if err != nil {
		return nil, err
	}
	return NewRunnerFrom(d, c), nil
}

// NewRunnerFrom creates another 64-lane runner over an already compiled
// design — campaigns that parallelise across goroutines use one Runner
// each.
func NewRunnerFrom(d *Design, c *sim.Compiled) *Runner {
	return NewWideRunnerFrom[sim.Word1](d, c)
}

// NewWideRunnerFrom creates a width-W runner over an already compiled
// design. It is the low-level constructor behind the campaign executor's
// engine configuration; callers outside the core/fault stack select width
// through fault.EngineConfig, which validates it first.
func NewWideRunnerFrom[W sim.Word](d *Design, c *sim.Compiled) *EngineRunner[W] {
	if c.Mod != d.Mod {
		panic("core: compiled module does not match design")
	}
	return &EngineRunner[W]{D: d, S: sim.NewEngine[W](c)}
}

// LambdaFunc supplies the per-cycle lambda port values: it returns one
// value per lane for cycle c (each value uses the low LambdaWidth bits).
// For EntropyPrime the returned values must not change across cycles of one
// run; LambdaConst enforces that.
type LambdaFunc func(c int) []uint64

// LambdaConst returns a LambdaFunc holding the given per-lane values for
// the whole run — the prime variant's contract.
func LambdaConst(vals []uint64) LambdaFunc {
	return func(int) []uint64 { return vals }
}

// BatchResult holds the outcome of one batch of encryptions.
type BatchResult struct {
	// CT[i] is the released output of lane i (the garbage value when
	// the comparator fired).
	CT []uint64
	// Fault[i] reports whether the comparator detected a mismatch in
	// lane i.
	Fault []bool
}

// EncryptBatch runs len(pts) parallel encryptions (at most S.LaneCount())
// under one key. garbage supplies the per-lane recovery outputs for
// duplicated schemes (ignored otherwise; may be nil). lambda supplies
// encoding bits for randomised schemes (ignored otherwise; may be nil).
func (r *EngineRunner[W]) EncryptBatch(pts []uint64, key spn.KeyState, garbage []uint64, lambda LambdaFunc) BatchResult {
	res := r.EncryptBatchReuse(pts, key, garbage, lambda)
	return BatchResult{
		CT:    append([]uint64(nil), res.CT...),
		Fault: append([]bool(nil), res.Fault...),
	}
}

// EncryptBatchReuse is EncryptBatch backed by the runner's internal
// buffers: the returned slices are only valid until the next call. It is
// the allocation-free path the campaign workers run on.
func (r *EngineRunner[W]) EncryptBatchReuse(pts []uint64, key spn.KeyState, garbage []uint64, lambda LambdaFunc) BatchResult {
	d := r.D
	s := r.S
	lanes := s.LaneCount()
	if len(pts) == 0 || len(pts) > lanes {
		panic(fmt.Sprintf("core: batch size %d out of range 1..%d", len(pts), lanes))
	}
	s.Reset()

	masked := d.Opts.Scheme.Masked()
	ptPort := pts
	if masked {
		if r.Masks != nil {
			ms := r.Masks
			if cap(r.ptBuf) < lanes {
				r.ptBuf = make([]uint64, lanes)
				r.lamBuf = make([]uint64, lanes)
			}
			ptm := r.ptBuf[:len(pts)]
			for i := range ptm {
				ptm[i] = pts[i] ^ ms.StateOdd[i]
			}
			ptPort = ptm
			s.SetInput(PortMaskStateEven, ms.StateEven)
			s.SetInput(PortMaskStateOdd, ms.StateOdd)
			if d.MaskPoolWidth > 0 {
				s.SetInput(PortMaskRandEven, ms.RandEven)
				s.SetInput(PortMaskRandOdd, ms.RandOdd)
			}
			s.SetInput(PortMaskLambda, ms.Lambda)
		} else {
			s.SetInputBroadcast(PortMaskStateEven, 0)
			s.SetInputBroadcast(PortMaskStateOdd, 0)
			if d.MaskPoolWidth > 0 {
				s.SetInputBroadcast(PortMaskRandEven, 0)
				s.SetInputBroadcast(PortMaskRandOdd, 0)
			}
			s.SetInputBroadcast(PortMaskLambda, 0)
		}
	}
	s.SetInput("pt", ptPort)
	keyLo := key[0] & bits.Mask(min(64, d.Spec.KeyBits))
	s.SetInputBroadcast("key_lo", keyLo)
	if d.Spec.KeyBits > 64 {
		s.SetInputBroadcast("key_hi", key[1]&bits.Mask(d.Spec.KeyBits-64))
	}
	if d.Opts.Scheme.Duplicated() && !d.Opts.Scheme.Correcting() {
		// The correcting scheme has no garbage port: it releases the
		// majority vote instead of a recovery value.
		if garbage == nil {
			garbage = make([]uint64, len(pts))
		}
		s.SetInput("garbage", garbage)
	}

	setLambda := func(c int) {
		if d.LambdaWidth == 0 || lambda == nil {
			return
		}
		vals := lambda(c)
		if masked && r.Masks != nil {
			// The lambda port of a masked design carries the λ share
			// λ ⊕ mask_lambda.
			lb := r.lamBuf[:len(vals)]
			for i := range lb {
				lb[i] = vals[i] ^ (r.Masks.Lambda[i] & 1)
			}
			vals = lb
		}
		s.SetInput("lambda", vals)
	}

	// Load cycle.
	s.SetInputBroadcast("load", 1)
	setLambda(0)
	s.Step()
	if r.CycleHook != nil {
		r.CycleHook(0)
	}

	// Round cycles.
	s.SetInputBroadcast("load", 0)
	for c := 1; c <= d.Spec.Rounds; c++ {
		setLambda(c)
		s.Step()
		if r.CycleHook != nil {
			r.CycleHook(c)
		}
	}

	// Combinational read-out of the final registers.
	s.Eval()

	if cap(r.ctBuf) < lanes {
		r.ctBuf = make([]uint64, lanes)
		r.faultBuf = make([]uint64, lanes)
		r.faultBits = make([]bool, lanes)
	}
	cts := s.OutputInto("ct", r.ctBuf[:lanes])[:len(pts)]
	faultsRaw := s.OutputInto("fault", r.faultBuf[:lanes])
	flags := r.faultBits[:len(pts)]
	for i := range flags {
		flags[i] = faultsRaw[i]&1 == 1
	}
	return BatchResult{CT: cts, Fault: flags}
}

// EncryptOne is a single-run convenience wrapper. lambdaBits supplies the
// per-cycle λ value (only the low LambdaWidth bits are used); pass nil for
// non-randomised schemes or all-zero λ.
func (r *EngineRunner[W]) EncryptOne(pt uint64, key spn.KeyState, garbage uint64, lambda LambdaFunc) (ct uint64, fault bool) {
	res := r.EncryptBatch([]uint64{pt}, key, []uint64{garbage}, lambda)
	return res.CT[0], res.Fault[0]
}
