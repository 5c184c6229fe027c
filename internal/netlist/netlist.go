// Package netlist defines the structural gate-level intermediate
// representation used throughout the repository: the synthesis engine emits
// it, the standard-cell library prices it, the simulator executes it and the
// fault engine injects into it.
//
// A Module is a flat netlist: a set of nets (single-bit wires) and cells
// (gates) driving them. Sequential elements are DFF cells; everything else
// is combinational. Primary inputs and outputs are named ports grouping nets
// into buses, with bit 0 of a bus being the least-significant bit.
package netlist

import (
	"fmt"
	"sync/atomic"
)

// Net identifies a single-bit wire within one Module. The zero value is not
// a valid net; valid nets are created with Module.NewNet.
type Net int32

// InvalidNet is the zero Net value, used to mark absent connections.
const InvalidNet Net = 0

// CellKind enumerates the supported gate types. The set intentionally
// mirrors a small standard-cell library: 1- and 2-input combinational cells,
// a 2:1 multiplexer and a D flip-flop.
type CellKind uint8

// Supported cell kinds.
const (
	KindInvalid CellKind = iota
	KindConst0           // constant logic 0, no inputs
	KindConst1           // constant logic 1, no inputs
	KindBuf              // out = a
	KindInv              // out = NOT a
	KindAnd2             // out = a AND b
	KindOr2              // out = a OR b
	KindNand2            // out = NOT (a AND b)
	KindNor2             // out = NOT (a OR b)
	KindXor2             // out = a XOR b
	KindXnor2            // out = NOT (a XOR b)
	KindMux2             // out = sel ? b : a  (inputs: a, b, sel)
	KindDFF              // out(t+1) = in(t); sequential
	kindCount
)

var kindNames = [...]string{
	KindInvalid: "INVALID",
	KindConst0:  "CONST0",
	KindConst1:  "CONST1",
	KindBuf:     "BUF",
	KindInv:     "INV",
	KindAnd2:    "AND2",
	KindOr2:     "OR2",
	KindNand2:   "NAND2",
	KindNor2:    "NOR2",
	KindXor2:    "XOR2",
	KindXnor2:   "XNOR2",
	KindMux2:    "MUX2",
	KindDFF:     "DFF",
}

var kindArity = [...]int{
	KindInvalid: 0,
	KindConst0:  0,
	KindConst1:  0,
	KindBuf:     1,
	KindInv:     1,
	KindAnd2:    2,
	KindOr2:     2,
	KindNand2:   2,
	KindNor2:    2,
	KindXor2:    2,
	KindXnor2:   2,
	KindMux2:    3,
	KindDFF:     1,
}

// String returns the canonical upper-case mnemonic of the kind.
func (k CellKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// Arity returns the number of inputs the kind requires.
func (k CellKind) Arity() int {
	if int(k) < len(kindArity) {
		return kindArity[k]
	}
	return 0
}

// IsSequential reports whether the kind is a state-holding element.
func (k CellKind) IsSequential() bool { return k == KindDFF }

// IsConst reports whether the kind is a constant driver.
func (k CellKind) IsConst() bool { return k == KindConst0 || k == KindConst1 }

// KindFromString parses a mnemonic produced by CellKind.String.
func KindFromString(s string) (CellKind, error) {
	for k := KindConst0; k < kindCount; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return KindInvalid, fmt.Errorf("netlist: unknown cell kind %q", s)
}

// Cell is one gate instance. Inputs are ordered; for KindMux2 the order is
// (a, b, sel) with out = sel ? b : a.
type Cell struct {
	Kind CellKind
	In   [3]Net // only the first Kind.Arity() entries are meaningful
	Out  Net
	// Keep marks the cell as protected from optimisation. Synthesis of
	// redundant countermeasure paths sets it so that equivalence-driven
	// passes cannot merge the actual and redundant computations — the
	// netlist-level analogue of the paper's synthesis constraint
	// "ensuring the redundant paths are not optimised away".
	Keep bool
	// Tag is an optional free-form annotation (for example the fault-
	// injection group a gate belongs to, such as "sbox13.round31").
	Tag string
}

// Inputs returns the meaningful input nets of the cell.
func (c *Cell) Inputs() []Net { return c.In[:c.Kind.Arity()] }

// Port is a named bundle of nets forming a bus. Bits[0] is the LSB.
type Port struct {
	Name string
	Bits Bus
}

// Width returns the number of bits in the port.
func (p *Port) Width() int { return len(p.Bits) }

// Module is a flat gate-level netlist.
type Module struct {
	Name string

	// netNames[i] is the debug name of Net(i); entry 0 is a placeholder
	// for InvalidNet.
	netNames []string
	// driver[i] is the index into Cells of the cell driving Net(i), or -1
	// if the net is undriven (a primary input or dangling).
	driver []int32

	Cells []Cell

	Inputs  []Port
	Outputs []Port

	// compiled is the simulator's compiled form of the module, memoised
	// by sim.CompileCached so that it is freed together with the module.
	compiled atomic.Pointer[any]
}

// Compiled returns the compiled form memoised on the module by
// SetCompiled, or nil before the first compilation.
func (m *Module) Compiled() any {
	if p := m.compiled.Load(); p != nil {
		return *p
	}
	return nil
}

// SetCompiled memoises c on the module unless a compiled form is already
// set, and returns the one in effect: c, or the form an earlier call
// stored first. A module must not be structurally modified once compiled;
// annotation-only updates such as SetTag are safe.
func (m *Module) SetCompiled(c any) any {
	if m.compiled.CompareAndSwap(nil, &c) {
		return c
	}
	return *m.compiled.Load()
}

// New creates an empty module with the given name.
func New(name string) *Module {
	return &Module{
		Name:     name,
		netNames: []string{""},
		driver:   []int32{-1},
	}
}

// NumNets returns the number of allocated nets (excluding InvalidNet).
func (m *Module) NumNets() int { return len(m.netNames) - 1 }

// NetName returns the debug name given to n at creation time.
func (m *Module) NetName(n Net) string {
	if n <= 0 || int(n) >= len(m.netNames) {
		return fmt.Sprintf("<bad-net-%d>", n)
	}
	return m.netNames[n]
}

// NewNet allocates a fresh net with the given debug name.
func (m *Module) NewNet(name string) Net {
	m.netNames = append(m.netNames, name)
	m.driver = append(m.driver, -1)
	return Net(len(m.netNames) - 1)
}

// NewNets allocates width nets named prefix[0], prefix[1], ...
func (m *Module) NewNets(prefix string, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = m.NewNet(fmt.Sprintf("%s[%d]", prefix, i))
	}
	return bus
}

// Driver returns the cell index driving n, or -1 if undriven.
func (m *Module) Driver(n Net) int {
	if n <= 0 || int(n) >= len(m.driver) {
		return -1
	}
	return int(m.driver[n])
}

// DriverCell returns a pointer to the cell driving n, or nil.
func (m *Module) DriverCell(n Net) *Cell {
	idx := m.Driver(n)
	if idx < 0 {
		return nil
	}
	return &m.Cells[idx]
}

// AddCell appends a gate driving out. It panics on arity mismatch, invalid
// nets, or if out already has a driver: the IR is single-assignment.
func (m *Module) AddCell(kind CellKind, out Net, in ...Net) *Cell {
	if kind.Arity() != len(in) {
		panic(fmt.Sprintf("netlist: %s requires %d inputs, got %d", kind, kind.Arity(), len(in)))
	}
	m.checkNet(out)
	if m.driver[out] >= 0 {
		panic(fmt.Sprintf("netlist: net %q already driven", m.NetName(out)))
	}
	c := Cell{Kind: kind, Out: out}
	for i, n := range in {
		m.checkNet(n)
		c.In[i] = n
	}
	m.Cells = append(m.Cells, c)
	m.driver[out] = int32(len(m.Cells) - 1)
	return &m.Cells[len(m.Cells)-1]
}

func (m *Module) checkNet(n Net) {
	if n <= 0 || int(n) >= len(m.netNames) {
		panic(fmt.Sprintf("netlist: invalid net %d in module %q", n, m.Name))
	}
}

// gate allocates a fresh net and drives it with a new cell of the kind.
func (m *Module) gate(kind CellKind, name string, in ...Net) Net {
	out := m.NewNet(name)
	m.AddCell(kind, out, in...)
	return out
}

// Const0 returns a net driven by constant 0.
func (m *Module) Const0() Net { return m.gate(KindConst0, "const0") }

// Const1 returns a net driven by constant 1.
func (m *Module) Const1() Net { return m.gate(KindConst1, "const1") }

// Buf returns a net driven by a buffer of a.
func (m *Module) Buf(a Net) Net { return m.gate(KindBuf, "buf", a) }

// Not returns a net driven by the complement of a.
func (m *Module) Not(a Net) Net { return m.gate(KindInv, "inv", a) }

// And returns a net driven by a AND b.
func (m *Module) And(a, b Net) Net { return m.gate(KindAnd2, "and", a, b) }

// Or returns a net driven by a OR b.
func (m *Module) Or(a, b Net) Net { return m.gate(KindOr2, "or", a, b) }

// Nand returns a net driven by NOT(a AND b).
func (m *Module) Nand(a, b Net) Net { return m.gate(KindNand2, "nand", a, b) }

// Nor returns a net driven by NOT(a OR b).
func (m *Module) Nor(a, b Net) Net { return m.gate(KindNor2, "nor", a, b) }

// Xor returns a net driven by a XOR b.
func (m *Module) Xor(a, b Net) Net { return m.gate(KindXor2, "xor", a, b) }

// Xnor returns a net driven by NOT(a XOR b).
func (m *Module) Xnor(a, b Net) Net { return m.gate(KindXnor2, "xnor", a, b) }

// Mux returns a net driven by sel ? b : a.
func (m *Module) Mux(a, b, sel Net) Net { return m.gate(KindMux2, "mux", a, b, sel) }

// DFF returns the Q net of a new flip-flop with data input d. State resets
// to 0 at the start of simulation.
func (m *Module) DFF(d Net) Net { return m.gate(KindDFF, "dff_q", d) }

// AddInput declares a primary-input port of the given width and returns its
// bus. The nets are left undriven; the simulator supplies their values.
func (m *Module) AddInput(name string, width int) Bus {
	bus := m.NewNets(name, width)
	m.Inputs = append(m.Inputs, Port{Name: name, Bits: bus.Clone()})
	return bus
}

// AddInputNets declares an input port over already-allocated nets.
func (m *Module) AddInputNets(name string, bus Bus) {
	for _, n := range bus {
		m.checkNet(n)
	}
	m.Inputs = append(m.Inputs, Port{Name: name, Bits: bus.Clone()})
}

// AddOutput declares a primary-output port over the given nets.
func (m *Module) AddOutput(name string, bus Bus) {
	for _, n := range bus {
		m.checkNet(n)
	}
	m.Outputs = append(m.Outputs, Port{Name: name, Bits: bus.Clone()})
}

// FindInput returns the input port with the given name, or nil.
func (m *Module) FindInput(name string) *Port {
	for i := range m.Inputs {
		if m.Inputs[i].Name == name {
			return &m.Inputs[i]
		}
	}
	return nil
}

// FindOutput returns the output port with the given name, or nil.
func (m *Module) FindOutput(name string) *Port {
	for i := range m.Outputs {
		if m.Outputs[i].Name == name {
			return &m.Outputs[i]
		}
	}
	return nil
}

// NumDFFs returns the number of sequential cells.
func (m *Module) NumDFFs() int {
	n := 0
	for i := range m.Cells {
		if m.Cells[i].Kind == KindDFF {
			n++
		}
	}
	return n
}

// NumCombinational returns the number of non-DFF, non-constant cells.
func (m *Module) NumCombinational() int {
	n := 0
	for i := range m.Cells {
		k := m.Cells[i].Kind
		if !k.IsSequential() && !k.IsConst() {
			n++
		}
	}
	return n
}

// SetTag sets the annotation tag on the cell driving n, if any, and returns
// whether a driver existed.
func (m *Module) SetTag(n Net, tag string) bool {
	c := m.DriverCell(n)
	if c == nil {
		return false
	}
	c.Tag = tag
	return true
}
