package lint

import (
	"repro/internal/netlist"
)

// structuralRule builds a rule that reports the shared netlist structural
// problems carrying the given check ID, so that netlist.Validate and the
// linter stay one implementation.
func structuralRule(check, doc string) *Rule {
	return &Rule{
		ID:       check,
		Doc:      doc,
		Category: CategoryStructural,
		Check: func(c *Context, r *Reporter) {
			for _, p := range c.problems {
				if p.Check == check {
					r.Report(Diagnostic{Severity: SeverityError, Cell: p.Cell, Net: p.Net, Message: p.Message})
				}
			}
		},
	}
}

func init() {
	register(structuralRule(netlist.CheckFloatingNet,
		"every net read by a cell or exported by an output port has a driver or is a primary input"))
	register(structuralRule(netlist.CheckMultiDriven,
		"no primary-input net is also driven by a cell"))
	register(structuralRule(netlist.CheckCombLoop,
		"the combinational logic is acyclic"))
	register(structuralRule(netlist.CheckDuplicatePort,
		"port names are unique"))

	portWidth := structuralRule(netlist.CheckPortWidth,
		"ports are well-formed: valid net ids, non-zero width, no repeated bits")
	shared := portWidth.Check
	portWidth.Check = func(c *Context, r *Reporter) {
		shared(c, r)
		checkPortShapes(c, r)
	}
	register(portWidth)

	register(&Rule{
		ID:       "dead-gate",
		Doc:      "every cell's output can reach a primary output (no unobservable logic)",
		Category: CategoryStructural,
		Check:    checkDeadGates,
	})
}

// checkPortShapes adds the lint-only port checks Validate does not fail
// on: zero-width ports and nets repeated within one port.
func checkPortShapes(c *Context, r *Reporter) {
	check := func(kind string, ports []netlist.Port) {
		for i := range ports {
			p := &ports[i]
			if p.Width() == 0 {
				r.Errorf(-1, 0, "%s port %q has zero width", kind, p.Name)
				continue
			}
			seen := make(map[netlist.Net]int, p.Width())
			for bi, n := range p.Bits {
				if prev, ok := seen[n]; ok {
					r.Errorf(-1, n, "%s port %q bits %d and %d reference the same net %q",
						kind, p.Name, prev, bi, c.M.NetName(n))
				}
				seen[n] = bi
			}
		}
	}
	check("input", c.M.Inputs)
	check("output", c.M.Outputs)
}

// checkDeadGates flags cells whose output cannot reach any primary output,
// even through flip-flops. Dead logic wastes area at best; at worst it is
// a countermeasure component (detector, redundant path) that synthesis or
// a hand edit disconnected. Constant drivers are exempt: unused constants
// are common synthesis residue and harmless.
func checkDeadGates(c *Context, r *Reporter) {
	var roots []netlist.Net
	for i := range c.M.Outputs {
		roots = append(roots, c.M.Outputs[i].Bits...)
	}
	if len(roots) == 0 {
		r.Skip("module has no output ports")
		return
	}
	observed := c.M.FaninCone(roots, true)
	for ci := range c.M.Cells {
		cell := &c.M.Cells[ci]
		if observed[ci] || cell.Kind.IsConst() {
			continue
		}
		r.Warnf(ci, cell.Out, "output of cell %d (%s %q) cannot reach any output port",
			ci, cell.Kind, c.M.NetName(cell.Out))
	}
}
