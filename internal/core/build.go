package core

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/spn"
	"repro/internal/synth"
)

// Options selects the construction Build emits.
type Options struct {
	Scheme  Scheme
	Entropy Entropy
	// Engine selects the S-box synthesis strategy.
	Engine synth.Engine
	// SeparateSbox selects the ACISP-style layout (separate plain and
	// inverted S-box circuits behind a multiplexer) instead of the
	// paper's merged (n+1)-bit S-box. Only meaningful for randomised
	// schemes; exposed for the merged-vs-separate ablation.
	SeparateSbox bool
	// Optimize runs the synthesis optimiser on the final module. The
	// redundant branch is marked Keep, so duplication survives; however
	// the internal probe points used by fault campaigns are only
	// tracked through an unoptimised build (Design.ProbesValid reports
	// this). Area studies optimise; fault campaigns do not.
	Optimize bool
}

// Design is a built protected (or baseline) core plus the metadata the
// fault campaigns need to address internal nets.
//
// Port protocol (see also Runner):
//
//	cycle 0:            load=1; pt, key (and lambda) valid
//	cycles 1..Rounds:   load=0; round r is computed during cycle r
//	after the last Step: evaluate combinationally and read ct / fault
//
// For EntropyPrime the lambda input must be held constant for the whole
// encryption; for the other variants a fresh value is supplied each cycle.
type Design struct {
	Spec *spn.Spec
	Opts Options
	Mod  *netlist.Module

	// LambdaWidth is the width of the "lambda" input port (0 when the
	// scheme is not randomised).
	LambdaWidth int

	// MaskPoolWidth is the width of each mask_rand_* refresh-pool input
	// port of a masked design — one bit per distinct merged-table ANF
	// monomial gadget of the shared masked S-box (0 when the scheme is
	// not masked).
	MaskPoolWidth int

	// sboxIn[b][s] is the encoded bus feeding S-box s of branch b.
	sboxIn [3][]netlist.Bus
	// branchCells[b] is the half-open cell-index range of branch b.
	branchCells [3][2]int

	probesValid bool
}

// Region classifies a cell index into the structural part of the design it
// belongs to: one of the two computations, or the shared compare-and-
// recover stage. Coverage campaigns report escapes per region.
type Region int

// Structural regions of a duplicated design. The region of branch b is
// Region(b), so the branch regions stay contiguous and the shared
// compare-and-recover stage comes after the last possible branch.
const (
	RegionActual Region = iota
	RegionRedundant
	RegionRedundant2
	RegionCompare
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionActual:
		return "actual-computation"
	case RegionRedundant:
		return "redundant-computation"
	case RegionRedundant2:
		return "second-redundant-computation"
	default:
		return "compare-and-recover"
	}
}

// BranchNets returns the output nets of every cell belonging to branch b —
// the footprint a localized EM probe over that computation would see.
func (d *Design) BranchNets(b Branch) []netlist.Net {
	if !d.probesValid {
		panic("core: regions are not tracked on an optimised design")
	}
	lo, hi := d.branchCells[b][0], d.branchCells[b][1]
	nets := make([]netlist.Net, 0, hi-lo)
	for ci := lo; ci < hi; ci++ {
		nets = append(nets, d.Mod.Cells[ci].Out)
	}
	return nets
}

// CellRegion reports the region of a cell index. Only meaningful on an
// unoptimised design (like the probe accessors).
func (d *Design) CellRegion(ci int) Region {
	if !d.probesValid {
		panic("core: regions are not tracked on an optimised design")
	}
	for b := 0; b < d.NumBranches(); b++ {
		if ci >= d.branchCells[b][0] && ci < d.branchCells[b][1] {
			return Region(b)
		}
	}
	return RegionCompare
}

// ProbesValid reports whether internal probe points (S-box input nets) are
// addressable; false after an optimised build.
func (d *Design) ProbesValid() bool { return d.probesValid }

// NumBranches returns 1 for the unprotected scheme, 3 for the correcting
// (majority-of-three) scheme and 2 otherwise.
func (d *Design) NumBranches() int {
	switch {
	case d.Opts.Scheme.Correcting():
		return 3
	case d.Opts.Scheme.Duplicated():
		return 2
	default:
		return 1
	}
}

// SboxInputBus returns the encoded bus feeding S-box s of branch b; fault
// campaigns inject on its nets (e.g. bit 2 = second MSB of a 4-bit S-box).
func (d *Design) SboxInputBus(b Branch, s int) netlist.Bus {
	if !d.probesValid {
		panic("core: probes are not valid on an optimised design")
	}
	if int(b) >= d.NumBranches() {
		panic(fmt.Sprintf("core: design %s has no branch %d", d.Mod.Name, b))
	}
	return d.sboxIn[b][s]
}

// SboxInputNet returns one bit of SboxInputBus.
func (d *Design) SboxInputNet(b Branch, s, bit int) netlist.Net {
	return d.SboxInputBus(b, s)[bit]
}

// CyclesPerRun returns the number of clock cycles one encryption takes
// (load cycle plus one cycle per round).
func (d *Design) CyclesPerRun() int { return d.Spec.Rounds + 1 }

// LastRoundCycle returns the cycle index during which the final round is
// computed — the paper's "last round attack" window.
func (d *Design) LastRoundCycle() int { return d.Spec.Rounds }

// lambdaWidth computes the lambda port width for the options.
func lambdaWidth(spec *spn.Spec, o Options) int {
	if !o.Scheme.Randomized() {
		return 0
	}
	if o.Entropy == EntropyPerSbox {
		return spec.NumSboxes()
	}
	return 1
}

// Build constructs the gate-level design for the given cipher and options.
func Build(spec *spn.Spec, opts Options) (*Design, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.KeyStateBits != spec.KeyBits {
		return nil, fmt.Errorf("core: key state width %d != key width %d not supported",
			spec.KeyStateBits, spec.KeyBits)
	}
	if spec.KeySchedNet == nil {
		return nil, fmt.Errorf("core: spec %s has no netlist key schedule", spec.Name)
	}
	if opts.Scheme.Masked() {
		if err := validateMaskedOptions(spec, opts); err != nil {
			return nil, err
		}
	}

	d := &Design{
		Spec:        spec,
		Opts:        opts,
		LambdaWidth: lambdaWidth(spec, opts),
		probesValid: true,
	}
	name := fmt.Sprintf("%s_%s", spec.Name, opts.Scheme)
	if opts.Scheme.Randomized() {
		name += "_" + opts.Entropy.String()
		if opts.SeparateSbox {
			name += "_sep"
		}
	}
	m := netlist.New(name)
	d.Mod = m

	sm := BuildSboxModules(spec.Sbox, spec.SboxBits, opts.Engine, true)

	pt := m.AddInput(PortPT, spec.BlockBits)
	keyLoW := spec.KeyBits
	if keyLoW > 64 {
		keyLoW = 64
	}
	key := m.AddInput(PortKeyLo, keyLoW)
	if spec.KeyBits > 64 {
		key = key.Concat(m.AddInput(PortKeyHi, spec.KeyBits-64))
	}
	loadBus := m.AddInput(PortLoad, 1)
	load := loadBus[0]

	var lam netlist.Bus
	if d.LambdaWidth > 0 {
		lam = m.AddInput(PortLambda, d.LambdaWidth)
	}

	// The correcting scheme has no garbage input: on disagreement it
	// releases the majority vote instead of an infective recovery value.
	var garbage netlist.Bus
	if opts.Scheme.Duplicated() && !opts.Scheme.Correcting() {
		garbage = m.AddInput(PortGarbage, spec.BlockBits)
	}

	// Masked scheme: plan the shared DOM S-box once, then declare the
	// mask ports (two parity-alternating sets plus the λ-share mask).
	var mp *maskedPorts
	var msb *netlist.Module
	if opts.Scheme.Masked() {
		plan := planMaskedSbox(synth.FromSbox(spec.Sbox, spec.SboxBits).Merged())
		if len(plan.gadgets) > 64 {
			return nil, fmt.Errorf("core: scheme %s needs a %d-bit refresh pool; ports are capped at 64 bits",
				opts.Scheme, len(plan.gadgets))
		}
		d.MaskPoolWidth = len(plan.gadgets)
		msb = buildMaskedSboxModule(fmt.Sprintf("sbox%db_masked_dom", spec.SboxBits), plan)
		mp = &maskedPorts{
			stateEven: m.AddInput(PortMaskStateEven, spec.BlockBits),
			stateOdd:  m.AddInput(PortMaskStateOdd, spec.BlockBits),
		}
		if d.MaskPoolWidth > 0 {
			mp.randEven = m.AddInput(PortMaskRandEven, d.MaskPoolWidth)
			mp.randOdd = m.AddInput(PortMaskRandOdd, d.MaskPoolWidth)
		}
		mp.lamMask = m.AddInput(PortMaskLambda, 1)[0]
	}

	// Branch λ assignment: the paper's first amendment fixes the
	// redundant branch to the complement of the actual branch's λ. The
	// correcting scheme keeps that λ-diversity between its first two
	// branches (λ, ¬λ) and closes the vote with a third branch on λ.
	lamA := lam
	var lamB netlist.Bus
	switch opts.Scheme {
	case SchemeThreeInOne, SchemeCorrect, SchemeMaskedDup:
		lamB = m.NotBus(lam)
	case SchemeACISP:
		lamB = lam
	}

	// branchCT builds one computation with the scheme's datapath flavour;
	// everything around the branches (compare stage, ports, tags) is
	// shared between the masked and unmasked constructions.
	branchCT := func(b Branch, lamBr netlist.Bus) netlist.Bus {
		if opts.Scheme.Masked() {
			return d.buildMaskedBranch(m, b, sm, msb, pt, key, load, lamBr[0], mp)
		}
		return d.buildBranch(m, b, sm, pt, key, load, lamBr)
	}

	d.branchCells[0][0] = len(m.Cells)
	ctA := branchCT(BranchActual, lamA)
	d.branchCells[0][1] = len(m.Cells)

	var ct netlist.Bus
	var fault netlist.Net
	if opts.Scheme.Duplicated() {
		// The redundant computations must survive synthesis: mark them
		// Keep so equivalence-driven optimisation cannot merge them
		// into the actual branch.
		mark := len(m.Cells)
		d.branchCells[1][0] = mark
		ctB := branchCT(BranchRedundant, lamB)
		d.branchCells[1][1] = len(m.Cells)
		for ci := mark; ci < len(m.Cells); ci++ {
			m.Cells[ci].Keep = true
		}
		if opts.Scheme.Correcting() {
			mark = len(m.Cells)
			d.branchCells[2][0] = mark
			ctC := branchCT(BranchRedundant2, lamA)
			d.branchCells[2][1] = len(m.Cells)
			for ci := mark; ci < len(m.Cells); ci++ {
				m.Cells[ci].Keep = true
			}
			// Bitwise majority of the three decoded results; the fault
			// flag reports any pairwise disagreement (a≠b ∨ a≠c covers
			// b≠c too), preserving detection telemetry next to the
			// corrected output.
			ct = make(netlist.Bus, len(ctA))
			for i := range ct {
				ab := m.And(ctA[i], ctB[i])
				ac := m.And(ctA[i], ctC[i])
				bc := m.And(ctB[i], ctC[i])
				ct[i] = m.Or(ab, m.Or(ac, bc))
			}
			diff := m.XorBus(ctA, ctB).Concat(m.XorBus(ctA, ctC))
			fault = m.OrReduce(diff)
		} else {
			diff := m.XorBus(ctA, ctB)
			fault = m.OrReduce(diff)
			ct = m.MuxBus(ctA, garbage, fault)
		}
	} else {
		fault = m.Const0()
		ct = ctA
	}

	m.AddOutput(PortCT, ct)
	m.AddOutput(PortFault, netlist.Bus{fault})

	// Declare the fault points: tag the driver of every S-box input bit —
	// the nets the paper's fault models target — with the "fp." prefix
	// internal/prove and the prove-backed lint rules resolve locations
	// from. Tags survive the netlist text round-trip, so serialised
	// designs stay addressable without the Design wrapper.
	for b := 0; b < d.NumBranches(); b++ {
		for s, bus := range d.sboxIn[b] {
			for bit, n := range bus {
				m.SetTag(n, fmt.Sprintf("fp.%ssbox%02d.b%d", BranchPrefix(Branch(b)), s, bit))
			}
		}
	}

	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: built module invalid: %w", err)
	}
	if opts.Optimize {
		d.Mod = synth.Optimize(m, synth.DefaultOptOptions())
		d.probesValid = false
		d.sboxIn = [3][]netlist.Bus{}
		d.branchCells = [3][2]int{}
	}
	return d, nil
}

// MustBuild is Build that panics on error.
func MustBuild(spec *spn.Spec, opts Options) *Design {
	d, err := Build(spec, opts)
	if err != nil {
		panic(err)
	}
	return d
}

// domIdx maps an S-box index to its λ bit index.
func (d *Design) domIdx(sboxIdx int) int {
	if d.LambdaWidth == 0 {
		return -1
	}
	return sboxIdx % d.LambdaWidth
}

// buildBranch emits one full computation (state, key and counter registers
// plus the round datapath) and returns the decoded ciphertext bus.
func (d *Design) buildBranch(m *netlist.Module, b Branch, sm SboxModules, pt, key netlist.Bus, load netlist.Net, lam netlist.Bus) netlist.Bus {
	spec := d.Spec
	prefix := BranchPrefix(b)
	randomized := len(lam) > 0
	needLamReg := randomized && d.Opts.Entropy != EntropyPrime
	dom := func(p int) int { return d.domIdx(p / spec.SboxBits) }

	// Register Q nets are allocated up front so the datapath can read
	// them; the DFF cells are added once the D nets exist.
	stateQ := m.NewNets(prefix+"state", spec.BlockBits)
	keyQ := m.NewNets(prefix+"key", spec.KeyStateBits)
	cntQ := m.NewNets(prefix+"cnt", spec.CounterWidth())
	var lamQ netlist.Bus
	if needLamReg {
		lamQ = m.NewNets(prefix+"lamreg", len(lam))
	}

	// Register-domain invariant: state bit p is always stored encoded
	// with λsrc[dom(p)] where λsrc is the λ used by the round that
	// produced it (λreg for the registered variants, the constant λ
	// input for the prime variant). The linear layer re-normalises the
	// encoding back to this by-position mapping each round.
	regDomainBit := func(p int) netlist.Net {
		if !randomized {
			return netlist.InvalidNet
		}
		if needLamReg {
			return lamQ[dom(p)]
		}
		return lam[dom(p)]
	}

	// --- round datapath ---

	// Domain conversion: re-encode each state bit from the previous
	// round's λ to the current round's λ. The conversion mask is
	// computed from λ bits only, so the raw state value never appears
	// on any wire.
	x := stateQ.Clone()
	if needLamReg {
		conv := make(netlist.Bus, spec.BlockBits)
		for p := range conv {
			conv[p] = m.Xor(lamQ[dom(p)], lam[dom(p)])
		}
		x = m.XorBus(x, conv)
	}

	// Key schedule (always in the plain encoding, per the paper).
	rkMask, ksNext := spec.KeySchedNet(m, keyQ, cntQ, sm.PlainFunc())
	if len(rkMask) != spec.BlockBits || len(ksNext) != spec.KeyStateBits {
		panic(fmt.Sprintf("core: %s KeySchedNet returned widths %d/%d", spec.Name, len(rkMask), len(ksNext)))
	}

	if !spec.KeyAddAfterPerm {
		x = m.XorBus(x, rkMask)
	}

	// S-box layer.
	d.sboxIn[b] = make([]netlist.Bus, spec.NumSboxes())
	var post netlist.Bus
	for s := 0; s < spec.NumSboxes(); s++ {
		in := x.Slice(s*spec.SboxBits, (s+1)*spec.SboxBits)
		d.sboxIn[b][s] = in
		inst := fmt.Sprintf("%ssbox%02d", prefix, s)
		var out netlist.Bus
		switch {
		case !randomized:
			out = sm.PlainFunc()(m, inst, in)
		case d.Opts.SeparateSbox:
			out = sm.PairInstance(m, inst, in, lam[d.domIdx(s)])
		default:
			out = sm.MergedInstance(m, inst, in, lam[d.domIdx(s)])
		}
		post = post.Concat(out)
	}

	y := d.linearLayer(m, post, lam)
	if spec.KeyAddAfterPerm {
		y = m.XorBus(y, rkMask)
	}

	// --- register next-state logic ---

	// Load path: encode the plaintext into the register-domain mapping.
	ptEnc := pt.Clone()
	if randomized {
		enc := make(netlist.Bus, spec.BlockBits)
		for p := range enc {
			enc[p] = m.Xor(pt[p], lam[dom(p)])
		}
		ptEnc = enc
	}
	stateD := m.MuxBus(y, ptEnc, load)
	for i := range stateQ {
		m.AddCell(netlist.KindDFF, stateQ[i], stateD[i])
	}

	keyD := m.MuxBus(ksNext, key, load)
	for i := range keyQ {
		m.AddCell(netlist.KindDFF, keyQ[i], keyD[i])
	}

	one := m.ConstBus(spec.CounterWidth(), 1)
	cntD := m.MuxBus(incrementBus(m, cntQ), one, load)
	for i := range cntQ {
		m.AddCell(netlist.KindDFF, cntQ[i], cntD[i])
	}

	if needLamReg {
		for i := range lamQ {
			m.AddCell(netlist.KindDFF, lamQ[i], lam[i])
		}
	}

	// --- output decode ---
	ct := stateQ.Clone()
	if randomized {
		dec := make(netlist.Bus, spec.BlockBits)
		for p := range dec {
			dec[p] = m.Xor(stateQ[p], regDomainBit(p))
		}
		ct = dec
	}
	if spec.FinalWhitening {
		ct = m.XorBus(ct, rkMask)
	}
	return ct
}

// linearLayer lowers the cipher's linear layer over the (possibly encoded)
// S-box outputs. For a bit permutation this is pure wiring. For a general
// GF(2) matrix each output bit is an XOR tree; when the datapath is
// λ-encoded, each row additionally picks up a domain-correction term so
// the result lands back in the by-position encoding: output bit j carries
// (⊕ row inputs) ⊕ (⊕ λ of the contributing domains) ⊕ λ[dom(j)], with
// pairs of identical λ nets cancelled statically (for permutations under
// one global λ the correction vanishes entirely, costing nothing).
func (d *Design) linearLayer(m *netlist.Module, post netlist.Bus, lam netlist.Bus) netlist.Bus {
	spec := d.Spec
	if spec.LinearRows == nil && (len(lam) == 0 || d.LambdaWidth <= 1) {
		// Permutation under at most one λ: wiring only.
		return post.Permute(spec.Perm)
	}
	rows := spec.LinearLayerRows()
	randomized := len(lam) > 0
	y := make(netlist.Bus, spec.BlockBits)
	for j := 0; j < spec.BlockBits; j++ {
		var ins netlist.Bus
		lamParity := make([]int, d.LambdaWidth)
		for i := 0; i < spec.BlockBits; i++ {
			if rows[j]&(1<<uint(i)) == 0 {
				continue
			}
			ins = append(ins, post[i])
			if randomized {
				lamParity[d.domIdx(i/spec.SboxBits)]++
			}
		}
		if randomized {
			lamParity[d.domIdx(j/spec.SboxBits)]++
			for w, c := range lamParity {
				if c%2 == 1 {
					ins = append(ins, lam[w])
				}
			}
		}
		y[j] = m.XorReduce(ins)
	}
	return y
}

// incrementBus builds an incrementer (half-adder ripple chain) as wide as
// its input bus.
func incrementBus(m *netlist.Module, c netlist.Bus) netlist.Bus {
	out := make(netlist.Bus, len(c))
	carry := netlist.Net(netlist.InvalidNet)
	for i := range c {
		if i == 0 {
			out[0] = m.Not(c[0])
			carry = c[0]
			continue
		}
		out[i] = m.Xor(c[i], carry)
		if i != len(c)-1 {
			carry = m.And(c[i], carry)
		}
	}
	return out
}
