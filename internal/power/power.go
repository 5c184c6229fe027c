// Package power is a behavioural side-channel model: it samples the
// switching activity (Hamming distance of all nets between consecutive
// cycles) or the state weight (Hamming weight of all nets) of a simulated
// design, producing one power trace per simulation lane per encryption —
// the standard CMOS leakage models used in side-channel evaluation.
//
// The paper's Section IV-B-2 claims the countermeasure "does not open up
// any additional side channel vulnerability"; the leakage experiments
// built on this package (internal/experiments) assess that claim with
// Welch's t-test, and also quantify an assumption the claim rests on: the
// encoding bit λ itself is visible to a power adversary (complemented
// wires flip the weight of the whole state), so the side-channel
// protection of λ must come from a dedicated SCA countermeasure layered on
// top — either externally, as the paper presumes, or with the masked
// scheme variant (core.SchemeMaskedDup) the leakage service jobs measure.
//
// The probe counts bit-sliced. Each cycle it gathers one 64-lane word per
// sampled net (the toggles w ⊕ w_prev under Hamming distance, the values w
// under Hamming weight) and folds the words with a carry-save adder tree
// into bit planes that unpack into one count per lane, so a cycle costs a
// few word operations per net whatever the switching activity. Samples go
// into one buffer allocated on the first batch: Traces returns views of it
// that stay valid until the next BeginBatch, and a warmed probed batch
// allocates nothing.
package power

import (
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Model selects the leakage model.
type Model int

// Leakage models.
const (
	// HammingDistance leaks the number of nets that toggled between
	// consecutive cycles (dynamic power, the usual CMOS model).
	HammingDistance Model = iota
	// HammingWeight leaks the number of nets at logic 1 each cycle
	// (static/bus model).
	HammingWeight
)

// String names the model.
func (m Model) String() string {
	if m == HammingDistance {
		return "hamming-distance"
	}
	return "hamming-weight"
}

// ParseModel resolves a wire token ("hd", "hamming-distance", "hw",
// "hamming-weight", or "" for the HD default) to its Model.
func ParseModel(token string) (Model, bool) {
	switch token {
	case "", "hd", "hamming-distance":
		return HammingDistance, true
	case "hw", "hamming-weight":
		return HammingWeight, true
	}
	return 0, false
}

// EngineProbe attaches to a width-W EngineRunner and records one sample per
// cycle per lane. Width is an execution detail: per-lane traces are
// bit-identical across widths, because each lane's sample only reduces that
// lane's own net values.
type EngineProbe[W sim.Word] struct {
	r      *core.EngineRunner[W]
	model  Model
	nets   int
	lanes  int
	cycles int
	// prev[g*(nets+1)+n] is net n's previous-cycle word of lane group g.
	prev []uint64
	// sampled lists the nets the probe reduces, in ascending order: every
	// net, or the subset Restrict chose (a localized EM probe rather than
	// a global power measurement).
	sampled []netlist.Net
	// words is the per-cycle scratch the sampled nets' words are gathered
	// into.
	words []uint64
	// samples[lane*cycles+t] is the sample of lane at cycle t of the
	// current batch, allocated on first use; traces[lane] views a lane's
	// row of it.
	samples []float64
	traces  [][]float64
}

// Probe is the classic 64-lane probe; all pre-width-configuration call
// sites use this instantiation.
type Probe = EngineProbe[sim.Word1]

// Attach installs a probe on a classic 64-lane runner's cycle hook. Only
// one probe can be attached to a runner at a time.
func Attach(r *core.Runner, model Model) *Probe {
	return AttachEngine[sim.Word1](r, model)
}

// AttachEngine installs a probe on a width-W runner's cycle hook.
func AttachEngine[W sim.Word](r *core.EngineRunner[W], model Model) *EngineProbe[W] {
	lanes := r.S.LaneCount()
	nets := r.D.Mod.NumNets()
	p := &EngineProbe[W]{
		r:      r,
		model:  model,
		nets:   nets,
		lanes:  lanes,
		cycles: r.D.CyclesPerRun(),
		prev:   make([]uint64, (lanes/64)*(nets+1)),
		words:  make([]uint64, nets),
	}
	p.Restrict(nil)
	r.CycleHook = p.sample
	return p
}

// Detach removes the probe from the runner.
func (p *EngineProbe[W]) Detach() { p.r.CycleHook = nil }

// Restrict limits the probe to the given nets, modelling a localized EM
// probe over one part of the die (e.g. one of the two computations).
// Passing nil restores the global view.
func (p *EngineProbe[W]) Restrict(nets []netlist.Net) {
	var include []bool
	if nets != nil {
		include = make([]bool, p.nets+1)
		for _, n := range nets {
			if n > 0 && int(n) <= p.nets {
				include[n] = true
			}
		}
	}
	p.sampled = p.sampled[:0]
	for n := 1; n <= p.nets; n++ {
		if include == nil || include[n] {
			p.sampled = append(p.sampled, netlist.Net(n))
		}
	}
}

// BeginBatch starts a batch: it resets the Hamming-distance reference to
// all-zero nets. Call it before each EncryptBatch whose traces should be
// captured.
func (p *EngineProbe[W]) BeginBatch() {
	if p.samples == nil {
		p.samples = make([]float64, p.lanes*p.cycles)
		p.traces = make([][]float64, p.lanes)
		for lane := range p.traces {
			end := (lane + 1) * p.cycles
			p.traces[lane] = p.samples[lane*p.cycles : end : end]
		}
	}
	clear(p.prev)
}

// Traces returns the recorded traces of the last batch: traces[lane][t] is
// the leakage sample of that lane at cycle t. The traces are views of the
// probe's one sample buffer, valid until the next BeginBatch: the next
// batch overwrites them, so copy a trace to keep it longer.
func (p *EngineProbe[W]) Traces() [][]float64 { return p.traces }

// sample is the cycle hook: it reduces the simulator's net values into one
// leakage sample per lane.
func (p *EngineProbe[W]) sample(cycle int) {
	s := p.r.S
	words := p.words[:len(p.sampled)]
	var counts [64]uint32
	for g := 0; g < p.lanes/64; g++ {
		if p.model == HammingDistance {
			prev := p.prev[g*(p.nets+1) : (g+1)*(p.nets+1)]
			for i, n := range p.sampled {
				w := s.NetWordGroup(n, g)
				words[i] = w ^ prev[n]
				prev[n] = w
			}
		} else {
			for i, n := range p.sampled {
				words[i] = s.NetWordGroup(n, g)
			}
		}
		columnCount(words, &counts)
		out := p.samples[g*64*p.cycles+cycle:]
		for lane, c := range counts {
			out[lane*p.cycles] = float64(c)
		}
	}
}

// csa is a carry-save adder over 64 bit-columns: for each column it adds
// the bits of a, b and c into a sum bit l and a carry bit h.
func csa(a, b, c uint64) (h, l uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// columnCount sets counts[lane] to the number of words in ws whose bit lane
// is set (len(ws) must stay below 2^32). It is the Harley–Seal population
// count turned sideways: a carry-save adder tree folds each block of 16
// words into the running bit planes ones, twos, fours and eights, every
// carry out of the eights (one per 16 words) ripples into a bit-sliced
// counter of sixteens, and the planes then unpack into one integer per
// lane.
func columnCount(ws []uint64, counts *[64]uint32) {
	var ones, twos, fours, eights uint64
	// sixteens[k] is bit k of every lane's count of sixteens; the planes
	// below top can be non-zero.
	var sixteens [28]uint64
	top := 0
	carry := func(c uint64) {
		k := 0
		for ; c != 0; k++ {
			sixteens[k], c = sixteens[k]^c, sixteens[k]&c
		}
		top = max(top, k)
	}
	i := 0
	for ; i+16 <= len(ws); i += 16 {
		b := (*[16]uint64)(ws[i : i+16])
		var twosA, twosB, foursA, foursB, eightsA, eightsB uint64
		twosA, ones = csa(ones, b[0], b[1])
		twosB, ones = csa(ones, b[2], b[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, b[4], b[5])
		twosB, ones = csa(ones, b[6], b[7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, b[8], b[9])
		twosB, ones = csa(ones, b[10], b[11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, b[12], b[13])
		twosB, ones = csa(ones, b[14], b[15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		var c uint64
		c, eights = csa(eights, eightsA, eightsB)
		carry(c)
	}
	// The last len(ws)%16 words add one at a time, rippling through the
	// planes.
	for _, c := range ws[i:] {
		ones, c = ones^c, ones&c
		twos, c = twos^c, twos&c
		fours, c = fours^c, fours&c
		eights, c = eights^c, eights&c
		carry(c)
	}
	for lane := range counts {
		n := uint32(ones>>lane&1) | uint32(twos>>lane&1)<<1 |
			uint32(fours>>lane&1)<<2 | uint32(eights>>lane&1)<<3
		for k, plane := range sixteens[:top] {
			n |= uint32(plane>>lane&1) << (4 + k)
		}
		counts[lane] = n
	}
}
