package core

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/spn"
	"repro/internal/synth"
)

// This file implements the SchemeMaskedDup datapath: the three-in-one
// duplication scheme with every data-carrying wire split into a first-order
// Boolean share pair. The construction is designed so that the *mean* of
// every net — and of every net's cycle-to-cycle transition — is independent
// of the processed data, which is exactly what a fixed-vs-random Welch
// t-test on summed Hamming-weight / Hamming-distance traces measures.
//
// Share convention (per branch, value v = state ⊕ λbranch as in the
// unmasked scheme):
//
//	share0 (registered):      v ⊕ M[i] ⊕ λm
//	share1 (combinational):   M[i] ⊕ λm
//
// where M is the per-encryption state mask and λm the λ-share mask. Because
// share1 is a pure function of the mask inputs it needs no register: the
// datapath re-establishes the canonical mask on share0 at the end of every
// round ("remasking"), so share1 is simply recomputed from the ports.
//
// Two independent mask sets (mask_state_even/odd, mask_rand_even/odd) are
// consumed in alternation by round parity. With a single per-encryption
// mask set, a register's consecutive values v_c ⊕ M and v_{c+1} ⊕ M would
// toggle as v_c ⊕ v_{c+1} — unmasked data under the Hamming-distance model.
// Parity alternation makes every consecutive-cycle pair use independent
// masks at the cost of one extra port set and a mux per masked bit, with no
// mask registers and no per-cycle randomness.
//
// S-boxes evaluate the merged (n+1)-input table as an ANF monomial network
// of domain-oriented-masking AND gadgets (one fresh pool bit per distinct
// monomial), followed by explicit left-folded XOR accumulation chains that
// keep a refresh bit in every partial sum. The XOR order (nonlinear
// monomials first, then linear shares, then the constant) is load-bearing:
// reassociating the chains can produce an unrefreshed cross-share partial
// sum whose mean depends on the data.

// maskedPlan is the gadget schedule of one masked S-box: the distinct
// ANF monomials of the merged table that need an AND gadget (each owning
// one refresh-pool bit) and the per-output term lists.
type maskedPlan struct {
	// inputs is the S-box width n; the λ share pair is input index n.
	inputs int
	table  *synth.TruthTable
	// gadgets lists the monomial masks in pool-bit order; gadgetIdx is
	// the inverse mapping.
	gadgets   []uint64
	gadgetIdx map[uint64]int
	outputs   []maskedOutput
}

// maskedOutput is one output's ANF split into gadget monomials (degree at
// least 2), linear terms (input indices; λ is index n) and the constant.
type maskedOutput struct {
	monomials []uint64
	linear    []int
	hasConst  bool
}

// planMaskedSbox schedules the gadgets of a merged (n+1)-input table.
// Monomials decompose from the lowest variable upward with shared prefixes
// (mirroring synth.SynthesizeANF), so the gadget count — and with it the
// mask_rand_* port width — is the number of distinct monomial prefixes of
// degree at least 2. The walk order is deterministic: outputs in order,
// monomial masks ascending, prefixes before the monomials that use them.
func planMaskedSbox(tt *synth.TruthTable) *maskedPlan {
	p := &maskedPlan{
		inputs:    tt.NumInputs - 1,
		table:     tt,
		gadgetIdx: make(map[uint64]int),
	}
	var ensure func(mask uint64)
	ensure = func(mask uint64) {
		if _, ok := p.gadgetIdx[mask]; ok {
			return
		}
		low := uint64(1) << uint(bits.TrailingZeros64(mask))
		if rest := mask &^ low; bits.OnesCount64(rest) >= 2 {
			ensure(rest)
		}
		p.gadgetIdx[mask] = len(p.gadgets)
		p.gadgets = append(p.gadgets, mask)
	}
	for o := 0; o < tt.NumOutputs; o++ {
		anf := tt.ANF(o)
		var op maskedOutput
		for x := uint64(0); x < tt.Size(); x++ {
			if (anf[x>>6]>>(x&63))&1 == 0 {
				continue
			}
			switch bits.OnesCount64(x) {
			case 0:
				op.hasConst = true
			case 1:
				op.linear = append(op.linear, bits.TrailingZeros64(x))
			default:
				ensure(x)
				op.monomials = append(op.monomials, x)
			}
		}
		p.outputs = append(p.outputs, op)
	}
	return p
}

// buildMaskedSboxModule emits the shared masked S-box netlist. Ports:
// x0/x1 are the state share buses, l0/l1 the λ share pair, r the refresh
// pool (current parity's set, one bit per gadget), y0/y1 the output share
// buses. The module is instantiated verbatim (never re-synthesised), so
// the gadget gate structure survives into the compiled design.
func buildMaskedSboxModule(name string, plan *maskedPlan) *netlist.Module {
	n := plan.inputs
	m := netlist.New(name)
	x0 := m.AddInput("x0", n)
	x1 := m.AddInput("x1", n)
	l0 := m.AddInput("l0", 1)
	l1 := m.AddInput("l1", 1)
	var r netlist.Bus
	if len(plan.gadgets) > 0 {
		r = m.AddInput("r", len(plan.gadgets))
	}

	share := func(i int) (netlist.Net, netlist.Net) {
		if i == n {
			return l0[0], l1[0]
		}
		return x0[i], x1[i]
	}

	type pair struct{ s0, s1 netlist.Net }
	memo := make(map[uint64]pair)
	var mono func(mask uint64) pair
	mono = func(mask uint64) pair {
		if p, ok := memo[mask]; ok {
			return p
		}
		var p pair
		if bits.OnesCount64(mask) == 1 {
			p.s0, p.s1 = share(bits.TrailingZeros64(mask))
			memo[mask] = p
			return p
		}
		low := bits.TrailingZeros64(mask)
		a0, a1 := share(low)
		b := mono(mask &^ (1 << uint(low)))
		rg := r[plan.gadgetIdx[mask]]
		// DOM AND gadget with a pure-mask output share: z0 = a·b ⊕ rg,
		// z1 = rg. The refresh bit enters the chain first so every
		// partial wire carries an independent uniform bit; the emission
		// order below is part of the security argument — do not
		// reassociate or let an optimiser rewrite it.
		t := m.Xor(rg, m.And(a0, b.s1))
		t = m.Xor(t, m.And(a1, b.s0))
		t = m.Xor(t, m.And(a1, b.s1))
		p = pair{s0: m.Xor(t, m.And(a0, b.s0)), s1: rg}
		memo[mask] = p
		return p
	}

	y0 := make(netlist.Bus, plan.table.NumOutputs)
	y1 := make(netlist.Bus, plan.table.NumOutputs)
	for o, op := range plan.outputs {
		var acc0, acc1 netlist.Net
		have0, have1 := false, false
		add0 := func(nn netlist.Net) {
			if !have0 {
				acc0, have0 = nn, true
			} else {
				acc0 = m.Xor(acc0, nn)
			}
		}
		add1 := func(nn netlist.Net) {
			if !have1 {
				acc1, have1 = nn, true
			} else {
				acc1 = m.Xor(acc1, nn)
			}
		}
		// Nonlinear monomials first: their z0 terms each carry a pool
		// bit, so every later partial sum stays refreshed. The linear
		// shares follow (their λm components cancel pairwise but always
		// leave a distinct state-mask bit), and the ANF constant is
		// folded into share0 alone.
		for _, mask := range op.monomials {
			p := mono(mask)
			add0(p.s0)
			add1(p.s1)
		}
		for _, i := range op.linear {
			a0, a1 := share(i)
			add0(a0)
			add1(a1)
		}
		switch {
		case !have0 && op.hasConst:
			acc0 = m.Const1()
		case !have0:
			acc0 = m.Const0()
		case op.hasConst:
			acc0 = m.Not(acc0)
		}
		if !have1 {
			acc1 = m.Const0()
		}
		y0[o], y1[o] = acc0, acc1
	}

	// Outputs must be distinct nets even when expressions coincide;
	// buffer aliases (same contract as synth.SynthesizeANF).
	all := y0.Concat(y1)
	seen := make(map[netlist.Net]bool)
	for i, nn := range all {
		if seen[nn] {
			all[i] = m.Buf(nn)
		} else {
			seen[nn] = true
		}
	}
	m.AddOutput("y0", all[:len(y0)])
	m.AddOutput("y1", all[len(y0):])
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("core: masked S-box netlist invalid: %v", err))
	}
	return m
}

// maskedPorts bundles the mask input buses of a masked design.
type maskedPorts struct {
	stateEven, stateOdd netlist.Bus
	randEven, randOdd   netlist.Bus
	lamMask             netlist.Net
}

// validateMaskedOptions rejects option combinations the masked construction
// does not support. The restrictions are structural, not incidental:
// per-round/per-sbox λ needs the domain-conversion layer whose correction
// wires would recombine shares, and a general GF(2) linear layer XORs
// S-box outputs across gadget cones, which could cancel refresh bits.
func validateMaskedOptions(spec *spn.Spec, opts Options) error {
	switch {
	case opts.Entropy != EntropyPrime:
		return fmt.Errorf("core: scheme %s supports entropy %s only (got %s)",
			opts.Scheme, EntropyPrime, opts.Entropy)
	case spec.LinearRows != nil:
		return fmt.Errorf("core: scheme %s needs a bit-permutation linear layer; %s has a general GF(2) layer",
			opts.Scheme, spec.Name)
	case opts.SeparateSbox:
		return fmt.Errorf("core: scheme %s has no separate-S-box layout", opts.Scheme)
	}
	return nil
}

// buildMaskedBranch emits one masked computation and returns the decoded —
// but last-cycle-gated — ciphertext bus. On every clocked (power-sampled)
// cycle the returned wires are forced to zero; only the final combinational
// read-out (counter = Rounds+1, load = 0) releases the recombined value,
// so no share recombination is ever visible to the per-cycle probe.
func (d *Design) buildMaskedBranch(m *netlist.Module, b Branch, sm SboxModules, msb *netlist.Module, pt, key netlist.Bus, load netlist.Net, lam0 netlist.Net, mp *maskedPorts) netlist.Bus {
	spec := d.Spec
	prefix := BranchPrefix(b)

	stateQ := m.NewNets(prefix+"state", spec.BlockBits)
	keyQ := m.NewNets(prefix+"key", spec.KeyStateBits)
	cntQ := m.NewNets(prefix+"cnt", spec.CounterWidth())

	// Round parity selects the active mask set: the register written for
	// cycle c carries the parity-c masks, and cnt bit 0 is c during cycle
	// c, so the combinational share1 always matches the register's mask.
	parity := cntQ[0]
	share1 := make(netlist.Bus, spec.BlockBits)
	nextShare1 := make(netlist.Bus, spec.BlockBits)
	for i := 0; i < spec.BlockBits; i++ {
		cur := m.Mux(mp.stateEven[i], mp.stateOdd[i], parity)
		share1[i] = m.Xor(cur, mp.lamMask)
		next := m.Mux(mp.stateOdd[i], mp.stateEven[i], parity)
		nextShare1[i] = m.Xor(next, mp.lamMask)
	}
	pool := make(netlist.Bus, d.MaskPoolWidth)
	for g := range pool {
		pool[g] = m.Mux(mp.randEven[g], mp.randOdd[g], parity)
	}

	// Key schedule: plain and unmasked, as in every scheme — the key is
	// fixed across a trace set, so its wires carry constants and cannot
	// contribute a fixed-vs-random difference. The round key XORs into
	// share0 only.
	rkMask, ksNext := spec.KeySchedNet(m, keyQ, cntQ, sm.PlainFunc())
	if len(rkMask) != spec.BlockBits || len(ksNext) != spec.KeyStateBits {
		panic(fmt.Sprintf("core: %s KeySchedNet returned widths %d/%d", spec.Name, len(rkMask), len(ksNext)))
	}

	x0 := stateQ.Clone()
	if !spec.KeyAddAfterPerm {
		x0 = m.XorBus(x0, rkMask)
	}

	// Masked S-box layer. The fault points stay the share0 input nets:
	// a flip there shifts the branch's logical value exactly as in the
	// unmasked scheme, so λ-diverse detection behaviour is unchanged.
	d.sboxIn[b] = make([]netlist.Bus, spec.NumSboxes())
	var y0, y1 netlist.Bus
	for s := 0; s < spec.NumSboxes(); s++ {
		in0 := x0.Slice(s*spec.SboxBits, (s+1)*spec.SboxBits)
		in1 := share1.Slice(s*spec.SboxBits, (s+1)*spec.SboxBits)
		d.sboxIn[b][s] = in0
		conns := map[string]netlist.Bus{
			"x0": in0,
			"x1": in1,
			"l0": {lam0},
			"l1": {mp.lamMask},
		}
		if len(pool) > 0 {
			conns["r"] = pool
		}
		outs := m.MustInstantiate(msb, fmt.Sprintf("%ssbox%02d", prefix, s), conns)
		y0 = y0.Concat(outs["y0"])
		y1 = y1.Concat(outs["y1"])
	}

	// Permutation linear layer: pure wiring on both shares.
	y0p := y0.Permute(spec.Perm)
	y1p := y1.Permute(spec.Perm)
	if spec.KeyAddAfterPerm {
		y0p = m.XorBus(y0p, rkMask)
	}

	// Remask: collapse the accumulated S-box masks back to the next
	// round's canonical encoding. t is a pure-mask wire (y1p never
	// carries data), so share0 picks up the fresh mask without any
	// data-on-data XOR.
	s0next := make(netlist.Bus, spec.BlockBits)
	for j := 0; j < spec.BlockBits; j++ {
		t := m.Xor(y1p[j], nextShare1[j])
		s0next[j] = m.Xor(y0p[j], t)
	}

	// Load path: the pt port of a masked design carries pt ⊕ Modd (the
	// harness pre-masks it with the odd state mask, since round 1 runs at
	// odd parity) and lam0 carries λbranch ⊕ λm, so the register lands on
	// value ⊕ Modd ⊕ λm — the canonical cycle-1 encoding.
	ptEnc := make(netlist.Bus, spec.BlockBits)
	for i := range ptEnc {
		ptEnc[i] = m.Xor(pt[i], lam0)
	}
	stateD := m.MuxBus(s0next, ptEnc, load)
	for i := range stateQ {
		m.AddCell(netlist.KindDFF, stateQ[i], stateD[i])
	}

	keyD := m.MuxBus(ksNext, key, load)
	for i := range keyQ {
		m.AddCell(netlist.KindDFF, keyQ[i], keyD[i])
	}

	w := spec.CounterWidth()
	one := m.ConstBus(w, 1)
	cntD := m.MuxBus(incrementBus(m, cntQ), one, load)
	for i := range cntQ {
		m.AddCell(netlist.KindDFF, cntQ[i], cntD[i])
	}

	// Output decode behind the last-cycle gate. The counter reads
	// Rounds+1 only on the final combinational read-out (every sampled
	// cycle evaluates at counter values 0..Rounds), and the ¬load term
	// guards the wrap-around case Rounds+1 == 2^w, whose compare value
	// collides with the load cycle's counter. Each share is gated
	// *before* any recombining XOR.
	target := uint64(spec.Rounds+1) & ((1 << uint(w)) - 1)
	eq := m.AndReduce(m.XnorBus(cntQ, m.ConstBus(w, target)))
	last := m.And(eq, m.Not(load))
	glam := m.Xor(m.And(lam0, last), m.And(mp.lamMask, last))
	ct := make(netlist.Bus, spec.BlockBits)
	for i := range ct {
		g0 := m.And(stateQ[i], last)
		g1 := m.And(share1[i], last)
		ct[i] = m.Xor(m.Xor(g0, g1), glam)
	}
	if spec.FinalWhitening {
		ct = m.XorBus(ct, rkMask)
	}
	return ct
}
