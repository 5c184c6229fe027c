package lint

import (
	"repro/internal/core"
)

func init() {
	register(&Rule{
		ID: "lambda-cone",
		Doc: "every data-path cell (fanout cone of pt) lies in the fanout cone of a λ bit " +
			"— the per-gate randomised encoding FTA rests on",
		Category: CategoryCountermeasure,
		Check:    checkLambdaCone,
	})
	register(&Rule{
		ID: "detect-coverage",
		Doc: "every redundant-branch register is observed by the fault comparator " +
			"— faults in the redundant computation cannot escape detection",
		Category: CategoryCountermeasure,
		Check:    checkDetectCoverage,
	})
}

// checkLambdaCone verifies the FTA precondition of Algorithm 1: every
// combinational cell processing data derived from the plaintext must also
// be downstream of the λ randomness, so that no gate's value is a
// deterministic function of the secret state. The key schedule is outside
// the pt cone and intentionally unencoded (the paper keeps it plain), so
// it is not checked.
func checkLambdaCone(c *Context, r *Reporter) {
	pt := c.Input(core.PortPT)
	if pt == nil {
		r.Skip("module has no " + core.PortPT + " input port (not a cipher core)")
		return
	}
	fanout := c.M.Fanout()
	ptCone := c.M.FanoutCone(fanout, pt.Bits, true)

	lam := c.Input(core.PortLambda)
	if lam == nil || lam.Width() == 0 {
		n := 0
		for ci := range c.M.Cells {
			if ptCone[ci] && !c.M.Cells[ci].Kind.IsSequential() {
				n++
			}
		}
		r.Errorf(-1, 0, "module has no %q input port: all %d data-path cells compute on "+
			"unrandomised values (no FTA protection)", core.PortLambda, n)
		return
	}
	lamCone := c.M.FanoutCone(fanout, lam.Bits, true)
	for ci := range c.M.Cells {
		cell := &c.M.Cells[ci]
		if !ptCone[ci] || lamCone[ci] || cell.Kind.IsSequential() {
			continue
		}
		r.Errorf(ci, cell.Out, "data-path cell %d (%s %q) is outside every λ fanout cone: "+
			"its value is a deterministic function of the secret state",
			ci, cell.Kind, c.M.NetName(cell.Out))
	}
}

// checkDetectCoverage verifies that the redundant computation is actually
// compared: every redundant-branch register must lie in the transitive
// fanin (through flip-flops) of the fault flag, otherwise a fault injected
// there can corrupt the redundant result — or the actual one, under the
// swapped-branch reading — without ever raising the flag.
func checkDetectCoverage(c *Context, r *Reporter) {
	if len(c.pairs) == 0 && len(c.unpaired) == 0 {
		r.Skip("module has no redundant-branch (" +
			core.BranchPrefix(core.BranchRedundant) + "*) registers")
		return
	}
	fault := c.Output(core.PortFault)
	if fault == nil || fault.Width() == 0 {
		r.Errorf(-1, 0, "module has redundant-branch registers but no %q output port: "+
			"the duplicated computation is never compared", core.PortFault)
		return
	}
	cone := c.M.FaninCone(fault.Bits, true)
	report := func(ci int) {
		cell := &c.M.Cells[ci]
		r.Errorf(ci, cell.Out, "redundant register %q is not in the fanin of the %q flag: "+
			"faults on it escape detection", c.M.NetName(cell.Out), core.PortFault)
	}
	for _, p := range c.pairs {
		if !cone[p.CellB] {
			report(p.CellB)
		}
	}
	for _, ci := range c.unpaired {
		if !cone[ci] {
			report(ci)
		}
	}
}
