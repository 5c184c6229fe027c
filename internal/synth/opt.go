package synth

import (
	"fmt"

	"repro/internal/netlist"
)

// OptOptions configures the optimisation pipeline.
type OptOptions struct {
	// ConstFold enables constant propagation and algebraic identities
	// (x AND x = x, x XOR x = 0, MUX with constant select, ...).
	ConstFold bool
	// CSE enables structural hashing: cells with identical kind and
	// (commutatively normalised) inputs are merged.
	CSE bool
	// DCE removes cells whose outputs cannot reach a primary output.
	DCE bool
	// MaxPasses bounds the rebuild-until-fixpoint loop.
	MaxPasses int
}

// DefaultOptOptions enables every pass.
func DefaultOptOptions() OptOptions {
	return OptOptions{ConstFold: true, CSE: true, DCE: true, MaxPasses: 5}
}

// Optimize rebuilds the module applying constant folding, common
// subexpression elimination and dead-cell elimination, iterating until the
// cell count stops improving.
//
// Cells marked Keep are exempt from every transformation: they are emitted
// verbatim, never merged with equivalent logic, and never deleted, and no
// other cell may be merged into them. This implements the paper's synthesis
// constraint of "ensuring the redundant paths are not optimised away": the
// countermeasure builders mark the redundant computation Keep so this
// equivalence-driven flow cannot collapse the duplication.
func Optimize(m *netlist.Module, opts OptOptions) *netlist.Module {
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 1
	}
	cur := m
	for pass := 0; pass < opts.MaxPasses; pass++ {
		next := rebuild(cur, opts)
		if len(next.Cells) >= len(cur.Cells) && pass > 0 {
			return cur
		}
		if len(next.Cells) == len(cur.Cells) {
			return next
		}
		cur = next
	}
	return cur
}

type cseKey struct {
	kind    netlist.CellKind
	a, b, c netlist.Net
}

type optBuilder struct {
	out  *netlist.Module
	opts OptOptions
	cse  map[cseKey]netlist.Net
	// constVal[n] is 0 or 1 for nets (in out) known constant; absent if
	// unknown.
	constVal map[netlist.Net]uint8
	const0   netlist.Net
	const1   netlist.Net
}

func (b *optBuilder) constNet(v uint8) netlist.Net {
	if v == 0 {
		if b.const0 == netlist.InvalidNet {
			b.const0 = b.out.Const0()
			b.constVal[b.const0] = 0
		}
		return b.const0
	}
	if b.const1 == netlist.InvalidNet {
		b.const1 = b.out.Const1()
		b.constVal[b.const1] = 1
	}
	return b.const1
}

func (b *optBuilder) known(n netlist.Net) (uint8, bool) {
	v, ok := b.constVal[n]
	return v, ok
}

// invOf returns a net computing NOT n, folding through constants and
// existing inverters.
func (b *optBuilder) invOf(n netlist.Net) netlist.Net {
	if v, ok := b.known(n); ok {
		return b.constNet(1 - v)
	}
	if d := b.out.DriverCell(n); d != nil && d.Kind == netlist.KindInv && !d.Keep {
		return d.In[0]
	}
	return b.emit(netlist.KindInv, "inv", n)
}

// emit creates (or CSE-reuses) a cell of the given kind in the output
// module after folding. name is the debug name for a fresh net.
func (b *optBuilder) emit(kind netlist.CellKind, name string, in ...netlist.Net) netlist.Net {
	if b.opts.ConstFold {
		if n, ok := b.fold(kind, in); ok {
			return n
		}
	}
	// Commutative normalisation for CSE.
	a0, a1, a2 := netlist.InvalidNet, netlist.InvalidNet, netlist.InvalidNet
	switch len(in) {
	case 1:
		a0 = in[0]
	case 2:
		a0, a1 = in[0], in[1]
		if commutative(kind) && a1 < a0 {
			a0, a1 = a1, a0
		}
	case 3:
		a0, a1, a2 = in[0], in[1], in[2]
	}
	key := cseKey{kind, a0, a1, a2}
	if b.opts.CSE {
		if n, ok := b.cse[key]; ok {
			return n
		}
	}
	out := b.out.NewNet(name)
	ins := make([]netlist.Net, 0, 3)
	for _, n := range []netlist.Net{a0, a1, a2}[:len(in)] {
		ins = append(ins, n)
	}
	b.out.AddCell(kind, out, ins...)
	if b.opts.CSE {
		b.cse[key] = out
	}
	switch kind {
	case netlist.KindConst0:
		b.constVal[out] = 0
	case netlist.KindConst1:
		b.constVal[out] = 1
	}
	return out
}

func commutative(kind netlist.CellKind) bool {
	switch kind {
	case netlist.KindAnd2, netlist.KindOr2, netlist.KindNand2,
		netlist.KindNor2, netlist.KindXor2, netlist.KindXnor2:
		return true
	}
	return false
}

// fold applies constant and algebraic identities. It returns the resulting
// net and true if the cell was eliminated.
func (b *optBuilder) fold(kind netlist.CellKind, in []netlist.Net) (netlist.Net, bool) {
	kv := func(i int) (uint8, bool) { return b.known(in[i]) }
	switch kind {
	case netlist.KindConst0:
		return b.constNet(0), true
	case netlist.KindConst1:
		return b.constNet(1), true
	case netlist.KindBuf:
		return in[0], true
	case netlist.KindInv:
		if v, ok := kv(0); ok {
			return b.constNet(1 - v), true
		}
		if d := b.out.DriverCell(in[0]); d != nil && d.Kind == netlist.KindInv && !d.Keep {
			return d.In[0], true
		}
	case netlist.KindAnd2, netlist.KindNand2:
		a, bn := in[0], in[1]
		neg := kind == netlist.KindNand2
		if va, ok := kv(0); ok {
			if va == 0 {
				return b.constNet(boolBit(neg)), true
			}
			return b.maybeInv(bn, neg), true
		}
		if vb, ok := kv(1); ok {
			if vb == 0 {
				return b.constNet(boolBit(neg)), true
			}
			return b.maybeInv(a, neg), true
		}
		if a == bn {
			return b.maybeInv(a, neg), true
		}
	case netlist.KindOr2, netlist.KindNor2:
		a, bn := in[0], in[1]
		neg := kind == netlist.KindNor2
		if va, ok := kv(0); ok {
			if va == 1 {
				return b.constNet(boolBit(!neg)), true
			}
			return b.maybeInv(bn, neg), true
		}
		if vb, ok := kv(1); ok {
			if vb == 1 {
				return b.constNet(boolBit(!neg)), true
			}
			return b.maybeInv(a, neg), true
		}
		if a == bn {
			return b.maybeInv(a, neg), true
		}
	case netlist.KindXor2, netlist.KindXnor2:
		a, bn := in[0], in[1]
		neg := kind == netlist.KindXnor2
		if va, ok := kv(0); ok {
			return b.maybeInv(bn, (va == 1) != neg), true
		}
		if vb, ok := kv(1); ok {
			return b.maybeInv(a, (vb == 1) != neg), true
		}
		if a == bn {
			return b.constNet(boolBit(neg)), true
		}
	case netlist.KindMux2:
		a, bn, sel := in[0], in[1], in[2]
		if vs, ok := kv(2); ok {
			if vs == 0 {
				return a, true
			}
			return bn, true
		}
		if a == bn {
			return a, true
		}
		va, aok := kv(0)
		vb, bok := kv(1)
		switch {
		case aok && bok && va == 0 && vb == 1:
			return sel, true
		case aok && bok && va == 1 && vb == 0:
			return b.invOf(sel), true
		case aok && va == 0:
			return b.emit(netlist.KindAnd2, "mux_and", sel, bn), true
		case bok && vb == 1:
			return b.emit(netlist.KindOr2, "mux_or", sel, a), true
		case bok && vb == 0:
			return b.emit(netlist.KindAnd2, "mux_and", b.invOf(sel), a), true
		case aok && va == 1:
			return b.emit(netlist.KindOr2, "mux_or", b.invOf(sel), bn), true
		}
	}
	return netlist.InvalidNet, false
}

func (b *optBuilder) maybeInv(n netlist.Net, inv bool) netlist.Net {
	if inv {
		return b.invOf(n)
	}
	return n
}

func boolBit(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// liveCells computes the set of cells reachable backwards from the primary
// outputs, crossing DFFs (a live DFF makes its D cone live). Keep cells are
// unconditionally live.
func liveCells(m *netlist.Module) []bool {
	var roots []netlist.Net
	for i := range m.Outputs {
		roots = append(roots, m.Outputs[i].Bits...)
	}
	for ci := range m.Cells {
		if m.Cells[ci].Keep {
			roots = append(roots, m.Cells[ci].Out)
		}
	}
	return m.FaninCone(roots, true)
}

// rebuild performs one functional optimisation pass.
func rebuild(m *netlist.Module, opts OptOptions) *netlist.Module {
	order, err := m.Levelize()
	if err != nil {
		panic(fmt.Sprintf("synth: optimize: %v", err))
	}
	live := make([]bool, len(m.Cells))
	if opts.DCE {
		live = liveCells(m)
	} else {
		for i := range live {
			live[i] = true
		}
	}

	b := &optBuilder{
		out:      netlist.New(m.Name),
		opts:     opts,
		cse:      make(map[cseKey]netlist.Net),
		constVal: make(map[netlist.Net]uint8),
	}
	netMap := make([]netlist.Net, m.NumNets()+1)

	for i := range m.Inputs {
		p := &m.Inputs[i]
		bus := make(netlist.Bus, p.Width())
		for bi, n := range p.Bits {
			if netMap[n] == netlist.InvalidNet {
				netMap[n] = b.out.NewNet(m.NetName(n))
			}
			bus[bi] = netMap[n]
		}
		b.out.AddInputNets(p.Name, bus)
	}

	// Pre-allocate Q nets of live DFFs so combinational logic can read
	// register outputs before the DFF cells are created.
	for ci := range m.Cells {
		c := &m.Cells[ci]
		if c.Kind.IsSequential() && live[ci] {
			netMap[c.Out] = b.out.NewNet(m.NetName(c.Out))
		}
	}

	mapped := func(n netlist.Net) netlist.Net {
		r := netMap[n]
		if r == netlist.InvalidNet {
			panic(fmt.Sprintf("synth: optimize: net %q used before definition", m.NetName(n)))
		}
		return r
	}

	for _, ci := range order {
		if !live[ci] {
			continue
		}
		c := &m.Cells[ci]
		ins := make([]netlist.Net, 0, 3)
		for _, in := range c.Inputs() {
			ins = append(ins, mapped(in))
		}
		var newOut netlist.Net
		if c.Keep {
			// Keep cells are copied verbatim: fresh net, no fold,
			// no CSE participation.
			newOut = b.out.NewNet(m.NetName(c.Out))
			nc := b.out.AddCell(c.Kind, newOut, ins...)
			nc.Keep = true
			nc.Tag = c.Tag
		} else {
			newOut = b.emit(c.Kind, m.NetName(c.Out), ins...)
			if c.Tag != "" {
				if dc := b.out.DriverCell(newOut); dc != nil && dc.Tag == "" {
					dc.Tag = c.Tag
				}
			}
		}
		netMap[c.Out] = newOut
	}

	for ci := range m.Cells {
		c := &m.Cells[ci]
		if !c.Kind.IsSequential() || !live[ci] {
			continue
		}
		nc := b.out.AddCell(netlist.KindDFF, netMap[c.Out], mapped(c.In[0]))
		nc.Keep = c.Keep
		nc.Tag = c.Tag
	}

	for i := range m.Outputs {
		p := &m.Outputs[i]
		bus := make(netlist.Bus, p.Width())
		for bi, n := range p.Bits {
			bus[bi] = mapped(n)
		}
		b.out.AddOutput(p.Name, bus)
	}
	if err := b.out.Validate(); err != nil {
		panic(fmt.Sprintf("synth: optimize produced invalid module: %v", err))
	}
	return b.out
}
