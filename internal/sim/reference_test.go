package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// EvalReference is the original interpreted evaluator: a per-cell switch
// over the levelized netlist, with injection checks on every cell output.
// It computes exactly what Eval computes (materialising every net at its
// own slot) and is the differential-testing and benchmarking baseline for
// the compiled instruction stream.
func (s *Engine[W]) EvalReference() {
	v := s.values
	cells := s.mod.Cells
	faulted := s.hasFault != nil
	for _, ci := range s.c.order {
		c := &cells[ci]
		var out W
		switch c.Kind {
		case netlist.KindConst0:
			// out stays zero.
		case netlist.KindConst1:
			out = splat[W](^uint64(0))
		case netlist.KindBuf:
			out = v[c.In[0]]
		case netlist.KindInv:
			a := v[c.In[0]]
			for k := 0; k < len(out); k++ {
				out[k] = ^a[k]
			}
		case netlist.KindAnd2:
			a, b := v[c.In[0]], v[c.In[1]]
			for k := 0; k < len(out); k++ {
				out[k] = a[k] & b[k]
			}
		case netlist.KindOr2:
			a, b := v[c.In[0]], v[c.In[1]]
			for k := 0; k < len(out); k++ {
				out[k] = a[k] | b[k]
			}
		case netlist.KindNand2:
			a, b := v[c.In[0]], v[c.In[1]]
			for k := 0; k < len(out); k++ {
				out[k] = ^(a[k] & b[k])
			}
		case netlist.KindNor2:
			a, b := v[c.In[0]], v[c.In[1]]
			for k := 0; k < len(out); k++ {
				out[k] = ^(a[k] | b[k])
			}
		case netlist.KindXor2:
			a, b := v[c.In[0]], v[c.In[1]]
			for k := 0; k < len(out); k++ {
				out[k] = a[k] ^ b[k]
			}
		case netlist.KindXnor2:
			a, b := v[c.In[0]], v[c.In[1]]
			for k := 0; k < len(out); k++ {
				out[k] = ^(a[k] ^ b[k])
			}
		case netlist.KindMux2:
			a, b, sel := v[c.In[0]], v[c.In[1]], v[c.In[2]]
			for k := 0; k < len(out); k++ {
				out[k] = (a[k] &^ sel[k]) | (b[k] & sel[k])
			}
		default:
			panic(fmt.Sprintf("sim: unexpected cell kind %s in combinational order", c.Kind))
		}
		if faulted && s.hasFault[c.Out] {
			for k := 0; k < len(out); k++ {
				out[k] = s.injector.Apply(s.cycle, c.Out, out[k])
			}
		}
		v[c.Out] = out
	}
}
