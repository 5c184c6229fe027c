package power

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	mathbits "math/bits"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
)

// probeSchemes are the cores the probe tests run on: the unprotected
// cipher, the paper's three-in-one core and its masked twin, which has
// about three times the nets.
var probeSchemes = []core.Scheme{core.SchemeUnprotected, core.SchemeThreeInOne, core.SchemeMaskedDup}

// designs caches the cores across tests; no test runs in parallel.
var designs = map[core.Scheme]*core.Design{}

// probeDesign builds (once per test binary) and compiles the prime-entropy
// PRESENT-80 core of a scheme.
func probeDesign(tb testing.TB, scheme core.Scheme) (*core.Design, *sim.Compiled) {
	tb.Helper()
	d, ok := designs[scheme]
	if !ok {
		d = core.MustBuild(present.Spec(), core.Options{
			Scheme: scheme, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
		})
		designs[scheme] = d
	}
	c, err := sim.CompileCached(d.Mod)
	if err != nil {
		tb.Fatal(err)
	}
	return d, c
}

// stimulus is one batch's inputs: a plaintext, garbage word and λ per
// lane and, on a masked core, a full set of mask draws.
type stimulus struct {
	pts, garbage, lambda []uint64
	masks                *core.MaskSet
}

func newStimulus(d *core.Design, lanes int, seed uint64) stimulus {
	gen := rng.NewXoshiro(seed)
	draw := func(width int) []uint64 {
		out := make([]uint64, lanes)
		if width > 0 {
			for i := range out {
				out[i] = gen.Bits(width)
			}
		}
		return out
	}
	st := stimulus{pts: draw(64), garbage: draw(64), lambda: draw(d.LambdaWidth)}
	if d.Opts.Scheme.Masked() {
		st.masks = &core.MaskSet{
			StateEven: draw(d.Spec.BlockBits),
			StateOdd:  draw(d.Spec.BlockBits),
			RandEven:  draw(d.MaskPoolWidth),
			RandOdd:   draw(d.MaskPoolWidth),
			Lambda:    draw(1),
		}
	}
	return st
}

// probeBatch starts a probe batch, runs the stimulus through the runner
// and returns the probe's traces.
func probeBatch[W sim.Word](r *core.EngineRunner[W], p *EngineProbe[W], st stimulus) [][]float64 {
	r.Masks = st.masks
	p.BeginBatch()
	r.EncryptBatchReuse(st.pts, key, st.garbage, core.LambdaConst(st.lambda))
	return p.Traces()
}

// traceDigest is the SHA-256 of the probe's traces over every scheme ×
// model × {global, actual-branch} view, two consecutive 64-lane batches
// on one probe each, with every sample written as its float64 bits.
// It was recorded with the per-set-bit popcount probe the column counter
// replaced, so any change to a sample anywhere changes it.
const traceDigest = "9a124e2c09e8e09ae84094b313394e1be29b6dfe5c3418e749bef6d768850b99"

func TestProbeTraceDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, scheme := range probeSchemes {
		d, c := probeDesign(t, scheme)
		for _, model := range []Model{HammingDistance, HammingWeight} {
			for _, local := range []bool{false, true} {
				r := core.NewRunnerFrom(d, c)
				p := Attach(r, model)
				if local {
					p.Restrict(d.BranchNets(core.BranchActual))
				}
				for batch := uint64(0); batch < 2; batch++ {
					traces := probeBatch(r, p, newStimulus(d, sim.Lanes, 0xD16E57+batch))
					for _, tr := range traces {
						if len(tr) != d.CyclesPerRun() {
							t.Fatalf("%v %v: trace of %d samples, want %d", scheme, model, len(tr), d.CyclesPerRun())
						}
						for _, x := range tr {
							binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
							h.Write(buf[:])
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != traceDigest {
		t.Fatalf("trace digest %s, want %s", got, traceDigest)
	}
}

// popcountProbe is the reference the column counter is checked against:
// the probe's original per-set-bit loop, which walks every net each cycle
// and increments a float per toggled bit. It samples the same runner as
// the probe under test through a chained cycle hook.
type popcountProbe[W sim.Word] struct {
	s       *sim.Engine[W]
	model   Model
	nets    int
	lanes   int
	prev    []uint64
	include []bool
	traces  [][]float64
}

// attachPopcount chains a reference probe behind the runner's current
// cycle hook; restrict, when non-nil, localizes it like Restrict.
func attachPopcount[W sim.Word](r *core.EngineRunner[W], model Model, restrict []netlist.Net) *popcountProbe[W] {
	nets := r.D.Mod.NumNets()
	ref := &popcountProbe[W]{
		s: r.S, model: model, nets: nets, lanes: r.S.LaneCount(),
		prev: make([]uint64, (r.S.LaneCount()/64)*(nets+1)),
	}
	if restrict != nil {
		ref.include = make([]bool, nets+1)
		for _, n := range restrict {
			if n > 0 && int(n) <= nets {
				ref.include[n] = true
			}
		}
	}
	hook := r.CycleHook
	r.CycleHook = func(cycle int) {
		hook(cycle)
		ref.sample()
	}
	return ref
}

func (p *popcountProbe[W]) beginBatch() {
	p.traces = make([][]float64, p.lanes)
	clear(p.prev)
}

func (p *popcountProbe[W]) sample() {
	perLane := make([]float64, p.lanes)
	for g := 0; g < p.lanes/64; g++ {
		prev := p.prev[g*(p.nets+1) : (g+1)*(p.nets+1)]
		for n := 1; n <= p.nets; n++ {
			if p.include != nil && !p.include[n] {
				continue
			}
			w := p.s.NetWordGroup(netlist.Net(n), g)
			contrib := w
			if p.model == HammingDistance {
				contrib = w ^ prev[n]
				prev[n] = w
			}
			for contrib != 0 {
				perLane[g*64+mathbits.TrailingZeros64(contrib)]++
				contrib &= contrib - 1
			}
		}
	}
	for lane := range perLane {
		p.traces[lane] = append(p.traces[lane], perLane[lane])
	}
}

// checkAgainstPopcount runs two consecutive batches through a width-W
// probe and the reference loop on one runner and requires every sample
// to agree. The second batch covers BeginBatch's reset of the
// Hamming-distance reference.
func checkAgainstPopcount[W sim.Word](t *testing.T, d *core.Design, c *sim.Compiled, model Model, restrict []netlist.Net) {
	t.Helper()
	r := core.NewWideRunnerFrom[W](d, c)
	p := AttachEngine[W](r, model)
	p.Restrict(restrict)
	ref := attachPopcount(r, model, restrict)
	for batch := uint64(0); batch < 2; batch++ {
		st := newStimulus(d, r.S.LaneCount(), 0x0AC1E+batch)
		ref.beginBatch()
		got := probeBatch(r, p, st)
		if len(got) != len(ref.traces) {
			t.Fatalf("W=%d batch %d: %d traces, reference %d", r.S.LaneWords(), batch, len(got), len(ref.traces))
		}
		for lane, want := range ref.traces {
			if len(got[lane]) != len(want) {
				t.Fatalf("W=%d batch %d lane %d: %d samples, reference %d",
					r.S.LaneWords(), batch, lane, len(got[lane]), len(want))
			}
			for cyc := range want {
				if got[lane][cyc] != want[cyc] {
					t.Fatalf("W=%d batch %d lane %d cycle %d: %v, reference %v",
						r.S.LaneWords(), batch, lane, cyc, got[lane][cyc], want[cyc])
				}
			}
		}
	}
}

// The column-counting probe records exactly the reference loop's samples
// on every core, under both models, globally and on one branch, at every
// engine width.
func TestProbeMatchesPopcountLoop(t *testing.T) {
	for _, scheme := range probeSchemes {
		d, c := probeDesign(t, scheme)
		for _, model := range []Model{HammingDistance, HammingWeight} {
			for _, restrict := range [][]netlist.Net{nil, d.BranchNets(core.BranchActual)} {
				name := scheme.String() + "/" + model.String()
				if restrict != nil {
					name += "/actual-branch"
				}
				t.Run(name, func(t *testing.T) {
					checkAgainstPopcount[sim.Word1](t, d, c, model, restrict)
					checkAgainstPopcount[sim.Word2](t, d, c, model, restrict)
					checkAgainstPopcount[sim.Word4](t, d, c, model, restrict)
				})
			}
		}
	}
}

// FuzzColumnCount checks the bit-sliced counter against a per-lane count
// over word slices of every length class: empty, shorter than one 16-word
// block, exact blocks with and without a tail, and several thousand words
// (as many as a core has nets), filled all-zero, all-ones or at random.
func FuzzColumnCount(f *testing.F) {
	for _, n := range []uint16{0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 257, 3401, 8192} {
		for fill := uint8(0); fill < 3; fill++ {
			f.Add(n, fill, uint64(n)<<8|uint64(fill))
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, fill uint8, seed uint64) {
		ws := make([]uint64, n)
		gen := rng.NewXoshiro(seed)
		for i := range ws {
			switch fill % 4 {
			case 0:
			case 1:
				ws[i] = ^uint64(0)
			case 2:
				ws[i] = gen.Uint64()
			default: // sparse
				ws[i] = gen.Uint64() & gen.Uint64() & gen.Uint64()
			}
		}
		var got [64]uint32
		columnCount(ws, &got)
		for lane := range got {
			var want uint32
			for _, w := range ws {
				want += uint32(w >> lane & 1)
			}
			if got[lane] != want {
				t.Fatalf("%d words (fill %d): lane %d counted %d, want %d", n, fill, lane, got[lane], want)
			}
		}
	})
}

// A probe allocates only on its first batch: a warmed probed batch
// allocates no more than the same batch unprobed.
func TestProbeBatchAllocs(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeThreeInOne, core.SchemeMaskedDup} {
		d, c := probeDesign(t, scheme)
		st := newStimulus(d, sim.Lanes, 0xA110C)
		lf := core.LambdaConst(st.lambda)
		plain := core.NewRunnerFrom(d, c)
		plain.Masks = st.masks
		probed := core.NewRunnerFrom(d, c)
		probed.Masks = st.masks
		p := Attach(probed, HammingDistance)
		unprobedAllocs := testing.AllocsPerRun(20, func() {
			plain.EncryptBatchReuse(st.pts, key, st.garbage, lf)
		})
		probedAllocs := testing.AllocsPerRun(20, func() {
			p.BeginBatch()
			probed.EncryptBatchReuse(st.pts, key, st.garbage, lf)
		})
		if probedAllocs > unprobedAllocs {
			t.Errorf("%v: a probed batch allocates %v times, an unprobed one %v", scheme, probedAllocs, unprobedAllocs)
		}
	}
}

// BenchmarkProbe times one 64-lane batch of the unmasked three-in-one core
// and of its masked twin, unprobed and under the Hamming-distance probe;
// the difference is the probe's cost per batch.
func BenchmarkProbe(b *testing.B) {
	for _, scheme := range []core.Scheme{core.SchemeThreeInOne, core.SchemeMaskedDup} {
		d, c := probeDesign(b, scheme)
		st := newStimulus(d, sim.Lanes, 0xBE7C)
		lf := core.LambdaConst(st.lambda)
		for _, probed := range []bool{false, true} {
			name := scheme.String() + "/unprobed"
			if probed {
				name = scheme.String() + "/probed"
			}
			b.Run(name, func(b *testing.B) {
				r := core.NewRunnerFrom(d, c)
				r.Masks = st.masks
				var p *Probe
				if probed {
					p = Attach(r, HammingDistance)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if p != nil {
						p.BeginBatch()
					}
					r.EncryptBatchReuse(st.pts, key, st.garbage, lf)
				}
			})
		}
	}
}
