// Package sim provides a levelized, bit-parallel gate-level simulator for
// netlist.Module designs.
//
// Every net carries one lane word — W machine words of 64 lanes each, with
// bit L of word k holding the logic value seen by simulation lane k*64+L —
// so one pass over the netlist evaluates 64×W independent stimulus
// patterns. This is the property that makes the 80,000-run fault campaigns
// of the paper cheap: a campaign batches runs 64 at a time and a wide
// engine evaluates several such batches per pass.
//
// The engine is generic over the word width: Engine[Word1] is the classic
// 64-lane simulator (and keeps the name Simulator), Engine[Word2] and
// Engine[Word4] run 128- and 256-bit-shaped inner loops the compiler can
// auto-vectorize. Width is an execution detail only — every width computes
// bit-identical per-lane results, so campaign digests and stored content
// addresses never depend on it. Lane width is selected through the engine
// configuration layer (fault.EngineConfig); NewEngine is the low-level
// constructor behind it.
//
// Compile lowers the levelized netlist into a compiled instruction stream
// (struct-of-arrays program storage with constants folded and BUF chains
// collapsed) that Eval executes with one of three specialised loops: a
// branchless fast path when no injector is installed, a segmented path that
// only pauses at nets pre-marked by Injector.Nets(), and a full-fidelity
// fallback when a fault targets a folded net. The original per-cell
// interpreter survives in the package tests as the differential-testing
// and benchmarking baseline.
//
// Sequential designs are simulated cycle by cycle: Step evaluates the
// combinational logic with the current register state, then clocks every
// DFF. Fault injection is provided through the Injector interface; the
// fault package implements it.
package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Lanes is the number of parallel simulation lanes in one 64-bit machine
// word. It is also the logical campaign batch size: wider engines evaluate
// several 64-lane groups per pass but results are always accounted in
// Lanes-sized batches, which keeps stored content addresses width-agnostic.
const Lanes = 64

// Word constrains the engine's lane-word type: W consecutive 64-lane
// groups evaluated by one instruction stream pass. [4]uint64 gives the
// compiler 256-bit SIMD-shaped inner loops.
type Word interface {
	[1]uint64 | [2]uint64 | [4]uint64
}

// The supported lane-word widths.
type (
	// Word1 is the classic single-word, 64-lane layout.
	Word1 = [1]uint64
	// Word2 is the 128-lane layout (two 64-lane groups per pass).
	Word2 = [2]uint64
	// Word4 is the 256-lane layout (four 64-lane groups per pass).
	Word4 = [4]uint64
)

// ValidLaneWords reports whether w is a supported engine word width. The
// engine-configuration layer validates against this before instantiating
// an engine.
func ValidLaneWords(w int) bool { return w == 1 || w == 2 || w == 4 }

// Injector mutates net values during simulation. Apply is called for every
// net listed by Nets() immediately after the net's value is computed (gate
// output, register output at clocking time, or primary input at load time).
// Apply must be a pure function of (cycle, net, value): the compiled
// evaluator schedules independent gates for throughput, so the relative
// order of Apply calls across different nets within one cycle is
// unspecified. Wide engines call Apply once per 64-lane group of a lane
// word, which purity makes equivalent to one call on a single-word engine.
type Injector interface {
	// Nets returns the set of nets the injector wants to observe; the
	// simulator only calls Apply for these.
	Nets() []netlist.Net
	// Apply returns the (possibly faulted) value of net n in cycle c,
	// given the fault-free lane word v.
	Apply(c int, n netlist.Net, v uint64) uint64
}

// evalMode selects which compiled loop Eval runs.
type evalMode uint8

const (
	// evalFast: no injector; run the branchless fast stream end to end.
	evalFast evalMode = iota
	// evalSegment: an injector is installed and every faulted net is
	// materialised by the fast stream; run it in segments, applying the
	// injector at each pre-marked instruction boundary.
	evalSegment
	// evalFull: a fault targets a folded net (collapsed BUF output or
	// constant); run the full per-cell stream with the reference
	// injection semantics.
	evalFull
)

// Engine executes one Module with lane words of type W. It is not safe for
// concurrent use; create one engine per goroutine (construction is cheap
// after the first compilation, which is cached in the module wrapper
// Compiled).
type Engine[W Word] struct {
	mod    *netlist.Module
	c      *Compiled
	values []W
	dffTmp []W
	cycle  int

	mode evalMode
	// read maps a net to the value slot holding its current logic value:
	// the alias table in fast/segmented mode (collapsed nets resolve to
	// their source), the identity table in full mode.
	read []int32
	// segs lists fast-stream instruction indices whose output net is
	// fault-marked, in topological order (segmented mode only).
	segs []int32

	hasFault []bool
	injector Injector
}

// Simulator is the classic 64-lane engine — one 64-bit word per net. All
// pre-width-configuration call sites use this instantiation.
type Simulator = Engine[Word1]

// Compiled caches the levelization and the lowered instruction stream of a
// module so many engines can be created without re-sorting.
type Compiled struct {
	Mod   *netlist.Module
	order []int
	dffs  []int
	prog  *program
}

// Compile levelizes the module once and lowers it to the instruction-stream
// program. It returns an error if the module has combinational cycles or
// fails validation.
func Compile(m *netlist.Module) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("sim: module %q invalid: %w", m.Name, err)
	}
	order, err := m.Levelize()
	if err != nil {
		return nil, err
	}
	var dffs []int
	for ci := range m.Cells {
		if m.Cells[ci].Kind.IsSequential() {
			dffs = append(dffs, ci)
		}
	}
	p := lower(m, order, dffs)
	countCompile(p)
	return &Compiled{Mod: m, order: order, dffs: dffs, prog: p}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(m *netlist.Module) *Compiled {
	c, err := Compile(m)
	if err != nil {
		panic(err)
	}
	return c
}

// splat broadcasts a 64-lane word to every group of a lane word.
func splat[W Word](x uint64) W {
	var w W
	for k := 0; k < len(w); k++ {
		w[k] = x
	}
	return w
}

// NewEngine creates a width-W engine over the compiled module with all
// state and inputs initialised to zero (and folded constants pre-loaded).
// It is the unchecked constructor underneath the engine-configuration
// layer: callers outside the sim/core/fault stack select width through
// fault.EngineConfig, whose validator is the only supported entry point
// (the sconevet enginecfg pass enforces this).
func NewEngine[W Word](c *Compiled) *Engine[W] {
	s := &Engine[W]{
		mod:    c.Mod,
		c:      c,
		values: make([]W, c.prog.nets+1),
		mode:   evalFast,
		read:   c.prog.alias,
	}
	for i, n := range c.prog.constNets {
		s.values[n] = splat[W](c.prog.constVals[i])
	}
	countNewEngine(s.LaneWords())
	return s
}

// NewSimulator creates a classic 64-lane simulator over the compiled
// module.
func (c *Compiled) NewSimulator() *Simulator {
	return NewEngine[Word1](c)
}

// New compiles m and returns a simulator; it panics if the module is
// invalid. Prefer Compile + NewSimulator when creating many simulators.
func New(m *netlist.Module) *Simulator {
	return MustCompile(m).NewSimulator()
}

// Module returns the simulated module.
func (s *Engine[W]) Module() *netlist.Module { return s.mod }

// Cycle returns the index of the next cycle Step will execute.
func (s *Engine[W]) Cycle() int { return s.cycle }

// LaneWords returns the engine's word width W.
func (s *Engine[W]) LaneWords() int {
	var w W
	return len(w)
}

// LaneCount returns the number of parallel simulation lanes (Lanes × W).
func (s *Engine[W]) LaneCount() int {
	var w W
	return Lanes * len(w)
}

// SetInjector installs (or clears, with nil) the fault injector and selects
// the matching evaluation path: segmented when every faulted net is
// materialised by the fast stream, full-fidelity otherwise.
func (s *Engine[W]) SetInjector(inj Injector) {
	s.injector = inj
	p := s.c.prog
	// A previous full-fidelity run may have left faulted values on folded
	// constants; restore them before picking the new path.
	for i, n := range p.constNets {
		s.values[n] = splat[W](p.constVals[i])
	}
	if inj == nil {
		s.hasFault = nil
		s.segs = nil
		s.mode = evalFast
		s.read = p.alias
		return
	}
	s.hasFault = make([]bool, s.mod.NumNets()+1)
	fallback := false
	for _, n := range inj.Nets() {
		if n > 0 && int(n) <= s.mod.NumNets() {
			s.hasFault[n] = true
			if p.folded[n] {
				fallback = true
			}
		}
	}
	if fallback {
		s.segs = nil
		s.mode = evalFull
		s.read = p.ident
		return
	}
	s.segs = s.segs[:0]
	for i, o := range p.rOut {
		if s.hasFault[o] {
			s.segs = append(s.segs, int32(i))
		}
	}
	s.mode = evalSegment
	s.read = p.alias
}

// Reset zeroes all register state and the cycle counter. Input values are
// retained.
func (s *Engine[W]) Reset() {
	s.cycle = 0
	var zero W
	for _, o := range s.c.prog.dffOut {
		s.values[o] = zero
	}
}

// SetInput loads a primary-input port. vals[L] supplies the port value for
// lane L (bit i of vals[L] drives bit i of the bus in lane L); missing lanes
// default to zero. It panics if the port does not exist or len(vals) exceeds
// LaneCount.
func (s *Engine[W]) SetInput(port string, vals []uint64) {
	p := s.mod.FindInput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no input %q", s.mod.Name, port))
	}
	if len(vals) > s.LaneCount() {
		panic(fmt.Sprintf("sim: %d lane values exceed %d lanes", len(vals), s.LaneCount()))
	}
	for bi, n := range p.Bits {
		var w W
		for lane, v := range vals {
			w[lane>>6] |= ((v >> uint(bi)) & 1) << uint(lane&63)
		}
		s.values[n] = s.applyFault(n, w)
	}
}

// SetInputBroadcast loads the same value into every lane of the port.
func (s *Engine[W]) SetInputBroadcast(port string, val uint64) {
	p := s.mod.FindInput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no input %q", s.mod.Name, port))
	}
	for bi, n := range p.Bits {
		var w W
		if (val>>uint(bi))&1 == 1 {
			w = splat[W](^uint64(0))
		}
		s.values[n] = s.applyFault(n, w)
	}
}

// SetInputLaneWords loads pre-transposed 64-lane words into the first lane
// group: words[bi] is the lane word for bit bi of the port. Lane groups
// beyond the first are zeroed.
func (s *Engine[W]) SetInputLaneWords(port string, words []uint64) {
	p := s.mod.FindInput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no input %q", s.mod.Name, port))
	}
	if len(words) != p.Width() {
		panic(fmt.Sprintf("sim: port %q width %d, got %d words", port, p.Width(), len(words)))
	}
	for bi, n := range p.Bits {
		var w W
		w[0] = words[bi]
		s.values[n] = s.applyFault(n, w)
	}
}

func (s *Engine[W]) applyFault(n netlist.Net, v W) W {
	if s.hasFault != nil && s.hasFault[n] {
		for k := 0; k < len(v); k++ {
			v[k] = s.injector.Apply(s.cycle, n, v[k])
		}
	}
	return v
}

// Eval evaluates all combinational logic with the current inputs and
// register state, without advancing the clock. For purely combinational
// modules this is a complete simulation pass.
func (s *Engine[W]) Eval() {
	countEval(s.LaneCount())
	switch s.mode {
	case evalFast:
		p := s.c.prog
		evalRange(p, s.values, 0, len(p.rOut))
	case evalSegment:
		s.evalSegmented()
	default:
		s.evalFull()
	}
}

// evalSegmented runs the fast stream in segments, applying the injector at
// each instruction whose output net is fault-marked — the same per-net
// injection points, in the same topological order, as the reference
// interpreter.
func (s *Engine[W]) evalSegmented() {
	p := s.c.prog
	v := s.values
	lo := 0
	for _, si := range s.segs {
		evalRange(p, v, lo, int(si)+1)
		o := p.rOut[si]
		w := v[o]
		for k := 0; k < len(w); k++ {
			w[k] = s.injector.Apply(s.cycle, netlist.Net(o), w[k])
		}
		v[o] = w
		lo = int(si) + 1
	}
	evalRange(p, v, lo, len(p.rOut))
}

// evalFull executes the unfolded per-cell stream with injection checks on
// every output — bit-for-bit the reference interpreter semantics, used when
// a fault targets a net the fast stream folds away.
func (s *Engine[W]) evalFull() {
	p := s.c.prog
	v := s.values
	for i := range p.aOp {
		var out W
		switch netlist.CellKind(p.aOp[i]) {
		case netlist.KindConst0:
			// out stays zero.
		case netlist.KindConst1:
			out = splat[W](^uint64(0))
		case netlist.KindBuf:
			out = v[p.aIn0[i]]
		case netlist.KindInv:
			a := v[p.aIn0[i]]
			for k := 0; k < len(out); k++ {
				out[k] = ^a[k]
			}
		case netlist.KindAnd2:
			a, b := v[p.aIn0[i]], v[p.aIn1[i]]
			for k := 0; k < len(out); k++ {
				out[k] = a[k] & b[k]
			}
		case netlist.KindOr2:
			a, b := v[p.aIn0[i]], v[p.aIn1[i]]
			for k := 0; k < len(out); k++ {
				out[k] = a[k] | b[k]
			}
		case netlist.KindNand2:
			a, b := v[p.aIn0[i]], v[p.aIn1[i]]
			for k := 0; k < len(out); k++ {
				out[k] = ^(a[k] & b[k])
			}
		case netlist.KindNor2:
			a, b := v[p.aIn0[i]], v[p.aIn1[i]]
			for k := 0; k < len(out); k++ {
				out[k] = ^(a[k] | b[k])
			}
		case netlist.KindXor2:
			a, b := v[p.aIn0[i]], v[p.aIn1[i]]
			for k := 0; k < len(out); k++ {
				out[k] = a[k] ^ b[k]
			}
		case netlist.KindXnor2:
			a, b := v[p.aIn0[i]], v[p.aIn1[i]]
			for k := 0; k < len(out); k++ {
				out[k] = ^(a[k] ^ b[k])
			}
		case netlist.KindMux2:
			a, b, sel := v[p.aIn0[i]], v[p.aIn1[i]], v[p.aIn2[i]]
			for k := 0; k < len(out); k++ {
				out[k] = (a[k] &^ sel[k]) | (b[k] & sel[k])
			}
		default:
			panic(fmt.Sprintf("sim: unexpected cell kind %s in combinational order", netlist.CellKind(p.aOp[i])))
		}
		o := p.aOut[i]
		if s.hasFault[o] {
			for k := 0; k < len(out); k++ {
				out[k] = s.injector.Apply(s.cycle, netlist.Net(o), out[k])
			}
		}
		v[o] = out
	}
}

// Step runs one clock cycle: combinational evaluation followed by clocking
// every DFF (Q <- D), then advances the cycle counter.
func (s *Engine[W]) Step() {
	s.Eval()
	// Two-phase latch so chained DFFs shift correctly regardless of
	// Cells order: capture all D values first, then commit.
	p := s.c.prog
	din := p.dffInFast
	if s.mode == evalFull {
		din = p.dffInFull
	}
	if cap(s.dffTmp) < len(din) {
		s.dffTmp = make([]W, len(din))
	}
	tmp := s.dffTmp[:len(din)]
	for i, idx := range din {
		tmp[i] = s.values[idx]
	}
	for i, o := range p.dffOut {
		out := tmp[i]
		if s.hasFault != nil && s.hasFault[o] {
			for k := 0; k < len(out); k++ {
				out[k] = s.injector.Apply(s.cycle, netlist.Net(o), out[k])
			}
		}
		s.values[o] = out
	}
	s.cycle++
}

// Run executes n clock cycles.
func (s *Engine[W]) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Output reads a primary-output port, returning one value per lane.
func (s *Engine[W]) Output(port string) []uint64 {
	return s.OutputInto(port, make([]uint64, s.LaneCount()))
}

// OutputInto reads a primary-output port into the caller's buffer, which
// must hold LaneCount values; it returns out for convenience. Campaign
// workers use it to keep the read-out allocation-free.
func (s *Engine[W]) OutputInto(port string, out []uint64) []uint64 {
	p := s.mod.FindOutput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no output %q", s.mod.Name, port))
	}
	lanes := s.LaneCount()
	if len(out) < lanes {
		panic(fmt.Sprintf("sim: output buffer holds %d of %d lanes", len(out), lanes))
	}
	out = out[:lanes]
	for i := range out {
		out[i] = 0
	}
	for bi, n := range p.Bits {
		w := s.values[s.read[n]]
		for lane := range out {
			out[lane] |= ((w[lane>>6] >> uint(lane&63)) & 1) << uint(bi)
		}
	}
	return out
}

// OutputLane reads a single lane of a primary-output port.
func (s *Engine[W]) OutputLane(port string, lane int) uint64 {
	p := s.mod.FindOutput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no output %q", s.mod.Name, port))
	}
	var out uint64
	for bi, n := range p.Bits {
		out |= ((s.values[s.read[n]][lane>>6] >> uint(lane&63)) & 1) << uint(bi)
	}
	return out
}

// NetWord returns the raw 64-lane word currently on net n in the first
// lane group; NetWordGroup reads the other groups of a wide engine.
func (s *Engine[W]) NetWord(n netlist.Net) uint64 { return s.values[s.read[n]][0] }

// NetWordGroup returns the raw 64-lane word of lane group g (lanes
// g*64 .. g*64+63) currently on net n.
func (s *Engine[W]) NetWordGroup(n netlist.Net, g int) uint64 {
	return s.values[s.read[n]][g]
}

// BusLane reads the value of an arbitrary bus in one lane; useful for
// probing internal state (e.g. the S-box input a SIFA histogram bins on).
func (s *Engine[W]) BusLane(bus netlist.Bus, lane int) uint64 {
	var out uint64
	for bi, n := range bus {
		out |= ((s.values[s.read[n]][lane>>6] >> uint(lane&63)) & 1) << uint(bi)
	}
	return out
}

// BusLanes reads an arbitrary bus across all lanes.
func (s *Engine[W]) BusLanes(bus netlist.Bus) []uint64 {
	out := make([]uint64, s.LaneCount())
	for bi, n := range bus {
		w := s.values[s.read[n]]
		for lane := range out {
			out[lane] |= ((w[lane>>6] >> uint(lane&63)) & 1) << uint(bi)
		}
	}
	return out
}

// EvalComb is a convenience for purely combinational modules: it loads the
// given input ports (broadcast across lanes from the single-lane values),
// evaluates, and returns the single-lane value of every output port.
func EvalComb(c *Compiled, inputs map[string]uint64) map[string]uint64 {
	s := c.NewSimulator()
	for name, val := range inputs {
		s.SetInputBroadcast(name, val)
	}
	s.Eval()
	out := make(map[string]uint64, len(c.Mod.Outputs))
	for i := range c.Mod.Outputs {
		out[c.Mod.Outputs[i].Name] = s.OutputLane(c.Mod.Outputs[i].Name, 0)
	}
	return out
}
