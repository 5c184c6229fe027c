package prove

import (
	"repro/internal/bdd"
	"repro/internal/netlist"
)

// VarOrder assigns BDD variables to the module's source nets: primary
// inputs, DFF outputs and floating nets. Combinational nets get none;
// Fold computes them. Variables are numbered at first touch by a
// depth-first walk of the output ports' fanin cones, in declaration order,
// then of each DFF's next-state cone, in cell order; source nets the walk
// never reaches follow in net order. The walk places variables that
// interact in one output next to each other, in particular the paired
// b0./b1. register bits the fault comparator XORs. Net-id order would
// separate the branches (all b0 registers are allocated before any b1
// register) and make the comparator's BDD exponential in the block width.
//
// nets[v] is the net of variable v; index[n] is the variable of net n, or
// -1 for a combinational net. The lint BDD rules and the Analyzer share
// this order.
func VarOrder(m *netlist.Module) (nets []netlist.Net, index []int) {
	index = make([]int, m.NumNets()+1)
	for n := range index {
		index[n] = -1
	}
	combinational := func(n netlist.Net) bool {
		d := m.Driver(n)
		return d >= 0 && !m.Cells[d].Kind.IsSequential()
	}
	seen := make([]bool, m.NumNets()+1)
	var visit func(n netlist.Net)
	visit = func(n netlist.Net) {
		if n <= 0 || int(n) > m.NumNets() || seen[n] {
			return
		}
		seen[n] = true
		if combinational(n) {
			for _, in := range m.DriverCell(n).Inputs() {
				visit(in)
			}
			return
		}
		index[n] = len(nets)
		nets = append(nets, n)
	}
	for i := range m.Outputs {
		for _, n := range m.Outputs[i].Bits {
			visit(n)
		}
	}
	for ci := range m.Cells {
		if m.Cells[ci].Kind.IsSequential() {
			visit(m.Cells[ci].In[0])
		}
	}
	for n := netlist.Net(1); int(n) <= m.NumNets(); n++ {
		if !combinational(n) {
			visit(n)
		}
	}
	return nets, index
}

// Fold computes combinational cells over vals, which holds one BDD per
// net: each cell of order (a Levelize order), or only those marked in keep
// when keep is non-nil, sets its output net to its function of its input
// nets' values. Every other net, source nets included, keeps the value the
// caller gave it.
func Fold(mgr *bdd.Manager, m *netlist.Module, order []int, keep []bool, vals []bdd.Node) {
	for _, ci := range order {
		if keep != nil && !keep[ci] {
			continue
		}
		cell := &m.Cells[ci]
		in := cell.Inputs()
		var v bdd.Node
		switch cell.Kind {
		case netlist.KindConst0:
			v = bdd.False
		case netlist.KindConst1:
			v = bdd.True
		case netlist.KindBuf:
			v = vals[in[0]]
		case netlist.KindInv:
			v = mgr.Not(vals[in[0]])
		case netlist.KindAnd2:
			v = mgr.And(vals[in[0]], vals[in[1]])
		case netlist.KindOr2:
			v = mgr.Or(vals[in[0]], vals[in[1]])
		case netlist.KindNand2:
			v = mgr.Not(mgr.And(vals[in[0]], vals[in[1]]))
		case netlist.KindNor2:
			v = mgr.Not(mgr.Or(vals[in[0]], vals[in[1]]))
		case netlist.KindXor2:
			v = mgr.Xor(vals[in[0]], vals[in[1]])
		case netlist.KindXnor2:
			v = mgr.Xnor(vals[in[0]], vals[in[1]])
		case netlist.KindMux2:
			v = mgr.ITE(vals[in[2]], vals[in[1]], vals[in[0]])
		default:
			continue // DFFs keep their source value
		}
		vals[cell.Out] = v
	}
}
