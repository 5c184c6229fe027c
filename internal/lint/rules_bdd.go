package lint

import (
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/netlist"
)

func init() {
	register(&Rule{
		ID: "const-net",
		Doc: "no cell output is provably constant over all inputs and register states " +
			"— dead logic, and a classic source of SIFA-exploitable bias",
		Category: CategoryCountermeasure,
		Check:    checkConstNets,
	})
	register(&Rule{
		ID: "dual-branch",
		Doc: "the redundant branch is BDD-equivalent to the complement-encoded (¬λ) dual " +
			"of the actual branch — identical fault masks produce detectably different effects",
		Category: CategoryCountermeasure,
		Check:    checkDualBranch,
	})
}

// checkConstNets builds a BDD for every net, treating primary inputs and
// register outputs as free variables, and flags any non-constant-kind cell
// whose output is a terminal: such a gate computes the same value under
// every input and state, so it is dead logic, and a biased intermediate of
// exactly the shape SIFA exploits.
func checkConstNets(c *Context, r *Reporter) {
	if c.orderErr != nil {
		r.Skip("combinational loop: see comb-loop")
		return
	}
	mgr := bdd.NewWithBudget(len(c.vars), bddBudget)
	var vals []bdd.Node
	if bdd.Guarded(func() {
		vals = c.buildBDDs(mgr, func(n netlist.Net) bdd.Node { return c.netVar(mgr, n) })
	}) != nil {
		r.Skip("BDD node budget exceeded")
		return
	}
	for ci := range c.M.Cells {
		cell := &c.M.Cells[ci]
		if cell.Kind.IsConst() || cell.Kind.IsSequential() {
			continue
		}
		if v := vals[cell.Out]; v == bdd.False || v == bdd.True {
			r.Errorf(ci, cell.Out, "cell %d (%s %q) always evaluates to %d",
				ci, cell.Kind, c.M.NetName(cell.Out), int(v))
		}
	}
}

// checkDualBranch proves the paper's first amendment statically: the
// redundant computation must be the complement-encoded dual of the actual
// one, running under ¬λ. The proof is inductive over one clock cycle:
//
//  1. Base (load cycle): with load=1 every register's next value is a
//     function of primary inputs alone; for each register pair the
//     redundant load value must be either equal to the actual one (plain
//     registers: key, counter) or its complement (λ-encoded registers:
//     state, λ shadow). λ-dependent b1. registers must load complements —
//     loading equal values means both branches share one λ, the ACISP
//     scheme identical-fault DFA bypasses. The correcting scheme's second
//     redundant branch (b2.) runs on λ like the actual one; its pairs are
//     derived and substituted the same way, so its vote comparator can
//     cancel too.
//  2. Step: assuming the correspondence on current register values
//     (substituting q_b1 := ¬q_b0 or q_b0, and likewise q_b2), each
//     redundant next-state function must equal the (complemented) actual
//     one, so the correspondence is an invariant.
//  3. Under the same substitution the fault flag must be identically 0:
//     the comparator cancels the dual encoding exactly, never false-alarms,
//     and therefore any deviation it does report is a real fault.
//
// Register pairs are located via the b0./b1./b2. net-name prefixes
// documented in internal/core.
func checkDualBranch(c *Context, r *Reporter) {
	m := c.M
	lam := c.Input(core.PortLambda)
	if lam == nil || lam.Width() == 0 {
		r.Skip("module has no " + core.PortLambda + " input port")
		return
	}
	for _, ci := range c.unpaired {
		r.Errorf(ci, m.Cells[ci].Out, "redundant register %q has no actual-branch partner",
			m.NetName(m.Cells[ci].Out))
	}
	if len(c.pairs) == 0 {
		if c.Input(core.PortGarbage) != nil {
			r.Errorf(-1, 0, "duplicated module (has %q input) with no paired branch registers: "+
				"branch correspondence cannot be established", core.PortGarbage)
		} else {
			r.Skip("module has no paired branch registers")
		}
		return
	}
	if c.orderErr != nil {
		r.Skip("combinational loop: see comb-loop")
		return
	}
	load := c.Input(core.PortLoad)
	if load == nil || load.Width() != 1 {
		r.Skip("module has no 1-bit " + core.PortLoad + " input port")
		return
	}

	mgr := bdd.NewWithBudget(len(c.vars), bddBudget)
	if bdd.Guarded(func() { dualBranchProof(c, r, mgr, lam, load) }) != nil {
		r.Skip("BDD node budget exceeded")
	}
}

// dualBranchProof is checkDualBranch's BDD obligation, separated out so the
// whole proof runs under one bdd.Guarded budget guard.
func dualBranchProof(c *Context, r *Reporter, mgr *bdd.Manager, lam, load *netlist.Port) {
	m := c.M
	vals := c.buildBDDs(mgr, func(n netlist.Net) bdd.Node { return c.netVar(mgr, n) })

	regVar := make(map[int]bool) // BDD variable index -> is a register output
	for ci := range m.Cells {
		if m.Cells[ci].Kind == netlist.KindDFF {
			regVar[c.varIdx[m.Cells[ci].Out]] = true
		}
	}
	lamVar := make(map[int]bool)
	for _, n := range lam.Bits {
		lamVar[c.varIdx[n]] = true
	}
	loadVar := c.varIdx[load.Bits[0]]

	// Base case: derive each pair's correspondence from the load path.
	type pairing struct {
		regPair
		complemented bool
	}
	var resolved []pairing
	derivationFailed := false
	for _, p := range c.pairs {
		dA := mgr.Restrict(vals[m.Cells[p.CellA].In[0]], loadVar, true)
		dB := mgr.Restrict(vals[m.Cells[p.CellB].In[0]], loadVar, true)
		if dependsOn(mgr, dA, regVar) || dependsOn(mgr, dB, regVar) {
			r.Errorf(p.CellB, m.Cells[p.CellB].Out,
				"load value of register pair %q depends on register state: "+
					"branch correspondence cannot be derived", p.Suffix)
			derivationFailed = true
			continue
		}
		var complemented bool
		switch {
		case dB == dA:
			complemented = false
		case dB == mgr.Not(dA):
			complemented = true
		default:
			r.Errorf(p.CellB, m.Cells[p.CellB].Out,
				"load values of register pair %q are neither equal nor complementary "+
					"across branches: the branches compute unrelated encodings", p.Suffix)
			derivationFailed = true
			continue
		}
		if p.Branch == core.BranchRedundant && !complemented && dependsOn(mgr, dA, lamVar) {
			r.Errorf(p.CellB, m.Cells[p.CellB].Out,
				"λ-encoded register pair %q loads the same encoding in both branches: "+
					"the redundant branch shares λ instead of using ¬λ, so identical "+
					"faults in both branches cancel in the comparator", p.Suffix)
		}
		resolved = append(resolved, pairing{regPair: p, complemented: complemented})
	}
	if derivationFailed {
		return
	}

	// Step + comparator: recompute every net with the redundant registers
	// substituted by their correspondence image and check the invariant.
	subst := make(map[netlist.Net]bdd.Node)
	for _, p := range resolved {
		qa := c.netVar(mgr, m.Cells[p.CellA].Out)
		if p.complemented {
			qa = mgr.Not(qa)
		}
		subst[m.Cells[p.CellB].Out] = qa
	}
	sVals := c.buildBDDs(mgr, func(n netlist.Net) bdd.Node {
		if v, ok := subst[n]; ok {
			return v
		}
		return c.netVar(mgr, n)
	})
	for _, p := range resolved {
		want := sVals[m.Cells[p.CellA].In[0]]
		if p.complemented {
			want = mgr.Not(want)
		}
		if sVals[m.Cells[p.CellB].In[0]] != want {
			r.Errorf(p.CellB, m.Cells[p.CellB].Out,
				"next-state of register pair %q does not preserve the branch "+
					"correspondence: the redundant branch is not the ¬λ dual", p.Suffix)
		}
	}
	if fault := c.Output(core.PortFault); fault != nil {
		for _, n := range fault.Bits {
			if sVals[n] != bdd.False {
				r.Errorf(m.Driver(n), n,
					"%q flag is not identically 0 when the redundant branch holds the "+
						"dual encoding: the comparator does not cancel the ¬λ encoding",
					core.PortFault)
			}
		}
	}
}

// dependsOn reports whether f's support intersects the variable set.
func dependsOn(mgr *bdd.Manager, f bdd.Node, vars map[int]bool) bool {
	for _, v := range mgr.Support(f) {
		if vars[v] {
			return true
		}
	}
	return false
}
