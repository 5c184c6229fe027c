package netlist

import (
	"fmt"
)

// Levelize returns the indices of all combinational cells in a topological
// order: every cell appears after the drivers of all its inputs. DFF outputs
// and primary inputs count as sources. It returns an error if the
// combinational logic contains a cycle.
func (m *Module) Levelize() ([]int, error) {
	order := make([]int, 0, len(m.Cells))
	// state: 0 = unvisited, 1 = in progress, 2 = done
	state := make([]uint8, len(m.Cells))

	var visit func(ci int) error
	visit = func(ci int) error {
		switch state[ci] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("netlist: combinational cycle through cell %d (%s driving %q)",
				ci, m.Cells[ci].Kind, m.NetName(m.Cells[ci].Out))
		}
		state[ci] = 1
		c := &m.Cells[ci]
		if !c.Kind.IsSequential() {
			for _, in := range c.Inputs() {
				d := m.Driver(in)
				if d >= 0 && !m.Cells[d].Kind.IsSequential() {
					if err := visit(d); err != nil {
						return err
					}
				}
			}
		}
		state[ci] = 2
		if !c.Kind.IsSequential() {
			order = append(order, ci)
		}
		return nil
	}

	// Iterative outer loop with recursive DFS. Netlists here are bounded
	// (tens of thousands of cells) and tree-like, so recursion depth is
	// manageable; LogicDepth below uses the produced order instead.
	for ci := range m.Cells {
		if err := visit(ci); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// LogicDepth returns the maximum number of combinational cells on any
// input-to-output (or register-to-register) path — the unit-delay critical
// path length. It returns an error on combinational cycles.
func (m *Module) LogicDepth() (int, error) {
	order, err := m.Levelize()
	if err != nil {
		return 0, err
	}
	depth := make([]int, m.NumNets()+1)
	max := 0
	for _, ci := range order {
		c := &m.Cells[ci]
		d := 0
		for _, in := range c.Inputs() {
			if depth[in] > d {
				d = depth[in]
			}
		}
		if !c.Kind.IsConst() {
			d++
		}
		depth[c.Out] = d
		if d > max {
			max = d
		}
	}
	return max, nil
}

// Fanout returns the module's fanout index: entry n lists, in cell order,
// the cells reading net n. Build it once and pass it to every FanoutCone
// query over the same module.
func (m *Module) Fanout() [][]int32 {
	fanout := make([][]int32, m.NumNets()+1)
	for ci := range m.Cells {
		for _, in := range m.Cells[ci].Inputs() {
			if in > 0 && int(in) <= m.NumNets() {
				fanout[in] = append(fanout[in], int32(ci))
			}
		}
	}
	return fanout
}

// FanoutCone returns per-cell membership of the transitive fanout cone of
// the root nets: every cell reading a root or the output of a cell in the
// cone. fanout is the module's Fanout index. A DFF reading the cone is in
// it; when crossDFF is set the cone continues through its Q output (a
// change on D appears on Q a cycle later), otherwise it stops there.
func (m *Module) FanoutCone(fanout [][]int32, roots []Net, crossDFF bool) []bool {
	inCone := make([]bool, len(m.Cells))
	seen := make([]bool, m.NumNets()+1)
	stack := make([]Net, 0, len(roots))
	for _, n := range roots {
		if n > 0 && int(n) <= m.NumNets() && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ci := range fanout[n] {
			c := &m.Cells[ci]
			inCone[ci] = true
			if c.Kind.IsSequential() && !crossDFF {
				continue
			}
			if !seen[c.Out] {
				seen[c.Out] = true
				stack = append(stack, c.Out)
			}
		}
	}
	return inCone
}

// FaninCone returns per-cell membership of the transitive fanin cone of
// the root nets: the drivers of the roots and, recursively, of every input
// of a cell in the cone. A DFF driving the cone is in it; when crossDFF is
// set the cone continues backwards through its D input, otherwise the DFF
// terminates the cone like a primary input does.
func (m *Module) FaninCone(roots []Net, crossDFF bool) []bool {
	inCone := make([]bool, len(m.Cells))
	var stack []int
	push := func(n Net) {
		if d := m.Driver(n); d >= 0 && !inCone[d] {
			inCone[d] = true
			stack = append(stack, d)
		}
	}
	for _, n := range roots {
		push(n)
	}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &m.Cells[ci]
		if c.Kind.IsSequential() && !crossDFF {
			continue
		}
		for _, in := range c.Inputs() {
			push(in)
		}
	}
	return inCone
}
