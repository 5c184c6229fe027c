package lint

import (
	"strings"
	"sync"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/prove"
)

// Context is the read-only shared state one lint run's rules operate on.
// Everything is precomputed before the rules start, so concurrent access
// needs no locking.
type Context struct {
	M *netlist.Module

	// problems are the shared structural checks (one source of truth with
	// netlist.Validate); structural rules filter them by Check ID.
	problems []netlist.Problem

	// order is the combinational topological order, nil with orderErr set
	// when the module has a combinational cycle.
	order    []int
	orderErr error

	pairs    []regPair
	unpaired []int // DFF cell indices with a b1. or b2. name but no b0. partner

	// proveOnce guards the shared prover run the three prove-backed rules
	// read (see rules_prove.go); it is the one lazily-computed member of
	// the otherwise read-only context.
	proveOnce sync.Once
	proveRun  proveAnalysis

	// vars are the source nets in BDD variable order and varIdx maps each
	// net to its variable (-1 for combinational nets): prove.VarOrder, the
	// order the prover uses.
	vars   []netlist.Net
	varIdx []int
}

// regPair is a matched pair of branch registers: the DFF holding suffix S
// under the actual-branch prefix and its counterpart in a redundant branch
// (b1., or the correcting scheme's second redundant branch b2.).
type regPair struct {
	Suffix string      // register name without the branch prefix, e.g. "state[3]"
	CellA  int         // DFF cell index, actual branch
	CellB  int         // DFF cell index, redundant branch
	Branch core.Branch // the redundant branch CellB belongs to
}

func newContext(m *netlist.Module) *Context {
	c := &Context{M: m}
	c.problems = m.StructuralProblems()
	c.order, c.orderErr = m.Levelize()
	c.vars, c.varIdx = prove.VarOrder(m)

	prefixA := core.BranchPrefix(core.BranchActual)
	byName := make(map[string]int)
	for ci := range m.Cells {
		cell := &m.Cells[ci]
		if cell.Kind != netlist.KindDFF {
			continue
		}
		if name := m.NetName(cell.Out); strings.HasPrefix(name, prefixA) {
			byName[strings.TrimPrefix(name, prefixA)] = ci
		}
	}
	for _, b := range []core.Branch{core.BranchRedundant, core.BranchRedundant2} {
		for ci := range m.Cells {
			cell := &m.Cells[ci]
			suffix, ok := strings.CutPrefix(m.NetName(cell.Out), core.BranchPrefix(b))
			if cell.Kind != netlist.KindDFF || !ok {
				continue
			}
			if a, ok := byName[suffix]; ok {
				c.pairs = append(c.pairs, regPair{Suffix: suffix, CellA: a, CellB: ci, Branch: b})
			} else {
				c.unpaired = append(c.unpaired, ci)
			}
		}
	}
	return c
}

// Input returns the input port with the given name, or nil.
func (c *Context) Input(name string) *netlist.Port { return c.M.FindInput(name) }

// Output returns the output port with the given name, or nil.
func (c *Context) Output(name string) *netlist.Port { return c.M.FindOutput(name) }

// bddBudget bounds the number of BDD nodes a single rule may allocate;
// past it the rule gives up and marks itself skipped rather than stalling
// the lint run.
const bddBudget = 4 << 20

// netVar returns the BDD variable assigned to a source net under the
// context's variable order (see vars).
func (c *Context) netVar(mgr *bdd.Manager, n netlist.Net) bdd.Node {
	return mgr.Var(c.varIdx[n])
}

// buildBDDs computes a BDD for every net of the module: source nets —
// primary inputs, DFF outputs, floating nets — evaluate to varOf(net) and
// prove.Fold folds the combinational cells in topological order. The
// context's order must be valid. Budget enforcement lives in the manager:
// callers allocate it with bdd.NewWithBudget(len(c.vars), bddBudget) and
// run the fold under bdd.Guarded, skipping the rule when the budget trips.
func (c *Context) buildBDDs(mgr *bdd.Manager, varOf func(n netlist.Net) bdd.Node) []bdd.Node {
	vals := make([]bdd.Node, c.M.NumNets()+1)
	for _, n := range c.vars {
		vals[n] = varOf(n)
	}
	prove.Fold(mgr, c.M, c.order, nil, vals)
	return vals
}
