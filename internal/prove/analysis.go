package prove

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// Analyzer proves independence obligations for one module, sharing the
// clean-execution BDDs across locations so a full sweep pays the base
// construction once. It is not safe for concurrent use; the service runs
// one analyzer per prove job and the lint rules share one behind a
// sync.Once.
type Analyzer struct {
	m      *netlist.Module
	budget int

	order  []int
	fanout [][]int32
	varIdx []int         // net -> BDD variable index, -1 for combinational nets
	varNet []netlist.Net // BDD variable index -> net
	part   *bdd.Partition

	loadNet  netlist.Net
	flagBits []netlist.Net
	obsNets  []netlist.Net // DFF D inputs + non-flag output bits
	dffs     []int

	// coneSet marks the cells of the flag output's combinational fanin
	// cone — the only logic the cycle-after-injection pass rebuilds.
	coneSet []bool

	// Base BDD state, built lazily and rebuilt after a budget overflow.
	mgr     *bdd.Manager
	vals1   []bdd.Node // clean cycle-1 net values over primary inputs only
	peak    int
	baseErr error // fatal (non-budget) model error; sticky
}

// NewAnalyzer prepares an analyzer with the given node budget (0 means
// DefaultBudget; more than MaxBudget is refused). It fails on modules
// outside the analysis model: ones with combinational cycles, or sequential
// ones without the 1-bit load port the register-initialisation argument
// needs.
func NewAnalyzer(m *netlist.Module, budget int) (*Analyzer, error) {
	if budget > MaxBudget {
		return nil, fmt.Errorf("prove: node budget %d exceeds the cap of %d", budget, MaxBudget)
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	order, err := m.Levelize()
	if err != nil {
		return nil, fmt.Errorf("prove: %w", err)
	}
	a := &Analyzer{m: m, budget: budget, order: order, fanout: m.Fanout()}
	for ci := range m.Cells {
		if m.Cells[ci].Kind == netlist.KindDFF {
			a.dffs = append(a.dffs, ci)
		}
	}

	if len(a.dffs) > 0 {
		lp := m.FindInput(core.PortLoad)
		if lp == nil || lp.Width() != 1 {
			return nil, fmt.Errorf("prove: sequential module %q has no 1-bit %q input port: "+
				"register initialisation cannot be derived", m.Name, core.PortLoad)
		}
		a.loadNet = lp.Bits[0]
	}
	if fp := m.FindOutput(core.PortFault); fp != nil {
		a.flagBits = append(a.flagBits, fp.Bits...)
	}

	// Observation points of the "data unchanged" event: everything stored
	// (DFF D inputs) and everything released (output bits), except the
	// detection flag itself, which is the other event.
	flagSet := make(map[netlist.Net]bool, len(a.flagBits))
	for _, n := range a.flagBits {
		flagSet[n] = true
	}
	for _, ci := range a.dffs {
		a.obsNets = append(a.obsNets, m.Cells[ci].In[0])
	}
	for i := range m.Outputs {
		for _, n := range m.Outputs[i].Bits {
			if !flagSet[n] {
				a.obsNets = append(a.obsNets, n)
			}
		}
	}

	a.varNet, a.varIdx = VarOrder(m)
	a.computePartition()
	a.coneSet = m.FaninCone(a.flagBits, false)
	return a, nil
}

// Budget returns the effective node budget.
func (a *Analyzer) Budget() int { return a.budget }

// PeakNodes returns the highest live BDD node count seen so far.
func (a *Analyzer) PeakNodes() int { return a.peak }

// Locations returns the module's tagged fault points.
func (a *Analyzer) Locations() []Location { return TaggedLocations(a.m) }

// computePartition classifies every BDD variable by the input port its net
// belongs to: key material ("key", "key_lo", "key_hi", ...) is ClassKey;
// the countermeasure's entropy ("lambda", "garbage") and the masked
// scheme's mask ports ("mask_*") are ClassRandom, summed out by the
// counting; everything else — plaintext, control, register state
// (eliminated by substitution before any count) — is ClassPublic.
func (a *Analyzer) computePartition() {
	classOf := make([]bdd.Class, len(a.varNet))
	for i := range a.m.Inputs {
		p := &a.m.Inputs[i]
		var cls bdd.Class
		switch {
		case strings.HasPrefix(p.Name, "key"):
			cls = bdd.ClassKey
		case strings.HasPrefix(p.Name, core.PortLambda),
			strings.HasPrefix(p.Name, core.PortGarbage),
			strings.HasPrefix(p.Name, core.PortMaskPrefix):
			cls = bdd.ClassRandom
		default:
			continue
		}
		for _, n := range p.Bits {
			if v := a.varIdx[n]; v >= 0 {
				classOf[v] = cls
			}
		}
	}
	a.part = bdd.NewPartition(classOf)
}

func (a *Analyzer) varName(v int) string {
	if v < 0 || v >= len(a.varNet) {
		return fmt.Sprintf("<var-%d>", v)
	}
	return NetName(a.m, a.varNet[v])
}

// build folds every combinational cell in topological order over the given
// source values (one per net; combinational nets are overwritten).
func (a *Analyzer) build(srcOf func(n netlist.Net) bdd.Node) []bdd.Node {
	m := a.m
	vals := make([]bdd.Node, m.NumNets()+1)
	for n := netlist.Net(1); int(n) <= m.NumNets(); n++ {
		// Combinational nets (varIdx -1) are overwritten by the fold.
		if a.varIdx[n] >= 0 {
			vals[n] = srcOf(n)
		}
	}
	Fold(a.mgr, m, a.order, nil, vals)
	return vals
}

// ensureBase builds the clean-execution BDDs: pass 0 with register outputs
// free, the load-cycle register values (load=1), and pass 1 — every net as
// a function of primary inputs only, with registers substituted by what
// the load cycle stored. Must run under bdd.Guarded.
func (a *Analyzer) ensureBase() {
	if a.mgr != nil || a.baseErr != nil {
		return
	}
	m := a.m
	a.mgr = bdd.NewWithBudget(len(a.varNet), a.budget)
	mgr := a.mgr
	freeVar := func(n netlist.Net) bdd.Node { return mgr.Var(a.varIdx[n]) }

	if len(a.dffs) == 0 {
		a.vals1 = a.build(freeVar)
		a.notePeak()
		return
	}

	vals0 := a.build(freeVar)
	loadVar := a.varIdx[a.loadNet]
	regVar := make(map[int]bool, len(a.dffs))
	for _, ci := range a.dffs {
		regVar[a.varIdx[m.Cells[ci].Out]] = true
	}
	loadD := make(map[netlist.Net]bdd.Node, len(a.dffs))
	for _, ci := range a.dffs {
		d := mgr.Restrict(vals0[m.Cells[ci].In[0]], loadVar, true)
		for _, v := range mgr.Support(d) {
			if regVar[v] {
				a.baseErr = fmt.Errorf("prove: register %q load value depends on register state: "+
					"registers are not initialised by the load cycle",
					m.NetName(m.Cells[ci].Out))
				a.mgr, a.vals1 = nil, nil
				return
			}
		}
		loadD[m.Cells[ci].Out] = d
	}
	a.vals1 = a.build(func(n netlist.Net) bdd.Node {
		if d, ok := loadD[n]; ok {
			return d
		}
		if n == a.loadNet {
			return bdd.False
		}
		return freeVar(n)
	})
	a.notePeak()
}

func (a *Analyzer) notePeak() {
	if a.mgr != nil && a.mgr.Size() > a.peak {
		a.peak = a.mgr.Size()
	}
}

// reset discards the BDD state after a budget overflow so the next
// location starts from a fresh manager.
func (a *Analyzer) reset() {
	a.mgr = nil
	a.vals1 = nil
}

// BaseNodes builds (if needed) the clean-execution BDDs and returns the
// manager's live node count — the ordering-sensitive cost the bdd package
// benchmark pins for the PRESENT-80 cones.
func (a *Analyzer) BaseNodes() (int, error) {
	var n int
	err := bdd.Guarded(func() {
		a.ensureBase()
		if a.mgr != nil {
			n = a.mgr.Size()
		}
	})
	if err != nil {
		return 0, err
	}
	if a.baseErr != nil {
		return 0, a.baseErr
	}
	return n, nil
}

// Prove decides the three checks for one fault at one location, injected
// during the first computation cycle. Budget overflows yield unknown
// verdicts after one retry on a fresh manager; the returned error is
// reserved for locations or modules outside the analysis model.
func (a *Analyzer) Prove(loc Location, model fault.Model) (LocationResult, error) {
	start := time.Now()
	lr := LocationResult{Location: loc, Model: model}
	if loc.Net <= 0 || int(loc.Net) > a.m.NumNets() {
		return lr, fmt.Errorf("prove: location net %d out of range", loc.Net)
	}
	for attempt := 0; ; attempt++ {
		err := bdd.Guarded(func() {
			a.ensureBase()
			if a.baseErr == nil {
				a.proveAt(&lr)
			}
		})
		if a.baseErr != nil {
			return lr, a.baseErr
		}
		if err == nil {
			break
		}
		a.reset()
		if attempt == 1 {
			for c := Check(0); c < NumChecks; c++ {
				lr.Checks[c] = CheckResult{Check: c, Verdict: VerdictUnknown}
			}
			lr.Nodes = a.budget
			break
		}
	}
	met.Load().countLocation(time.Since(start).Nanoseconds(), a.peak)
	return lr, nil
}

// proveAt runs the faulted passes and the counts. Runs under bdd.Guarded.
func (a *Analyzer) proveAt(lr *LocationResult) {
	m, mgr := a.m, a.mgr
	clean := a.vals1
	L := lr.Location.Net

	var faultVal bdd.Node
	switch lr.Model {
	case fault.StuckAt0:
		faultVal = bdd.False
	case fault.StuckAt1:
		faultVal = bdd.True
	default:
		faultVal = mgr.Not(clean[L])
	}

	// Faulted injection cycle: override the location net and recompute
	// its combinational fanout cone.
	valsF := append([]bdd.Node(nil), clean...)
	valsF[L] = faultVal
	Fold(mgr, m, a.order, m.FanoutCone(a.fanout, []netlist.Net{L}, false), valsF)

	// U — the fault is ineffective: every stored and released bit is
	// unchanged at the injection cycle. Untouched nets share the clean
	// BDD node, so only the cone contributes conjuncts.
	u := bdd.True
	for _, n := range a.obsNets {
		if valsF[n] != clean[n] {
			u = mgr.And(u, mgr.Xnor(valsF[n], clean[n]))
		}
	}

	// D — the fault is detected: the flag at the injection cycle, or (for
	// sequential modules) at the cycle after it, when the comparator reads
	// the corrupted registers. The flag cone is rebuilt over the faulted
	// next-state; λ draws are reused across the two cycles.
	d := bdd.False
	for _, n := range a.flagBits {
		d = mgr.Or(d, valsF[n])
	}
	if len(a.dffs) > 0 && len(a.flagBits) > 0 {
		vals2 := a.nextCycleFlag(valsF)
		for _, n := range a.flagBits {
			d = mgr.Or(d, vals2[n])
		}
	}

	lr.Checks[CheckIneffectiveBias] = a.checkResult(CheckIneffectiveBias, mgr.CountRandom(u, a.part))
	lr.Checks[CheckFlagIndependence] = a.checkResult(CheckFlagIndependence, mgr.CountRandom(d, a.part))
	lr.Checks[CheckSIFAIndependence] = a.checkResult(CheckSIFAIndependence,
		mgr.CondCountRandom(mgr.And(u, d), u, a.part))
	lr.Nodes = mgr.Size()
	a.notePeak()
}

// nextCycleFlag evaluates the flag output one cycle after injection:
// register outputs become the faulted next-state functions, the load
// strobe is 0, and only the flag's fanin cone is folded.
func (a *Analyzer) nextCycleFlag(valsF []bdd.Node) []bdd.Node {
	m, mgr := a.m, a.mgr
	vals2 := make([]bdd.Node, m.NumNets()+1)
	for n := netlist.Net(1); int(n) <= m.NumNets(); n++ {
		// Non-source nets outside the flag cone keep a dead placeholder.
		if a.varIdx[n] >= 0 {
			vals2[n] = mgr.Var(a.varIdx[n])
		}
	}
	for _, ci := range a.dffs {
		vals2[m.Cells[ci].Out] = valsF[m.Cells[ci].In[0]]
	}
	if a.loadNet != 0 {
		vals2[a.loadNet] = bdd.False
	}
	Fold(mgr, m, a.order, a.coneSet, vals2)
	return vals2
}

// checkResult translates a count's key-(in)dependence into a verdict,
// extracting a named witness for dependent counts.
func (a *Analyzer) checkResult(ch Check, c *bdd.Count) CheckResult {
	if !c.KeyDependent() {
		return CheckResult{Check: ch, Verdict: VerdictIndependent}
	}
	w := c.Witness()
	wit := &Witness{Key: a.varName(w.KeyVar), Lo: w.Lo, Hi: w.Hi}
	for _, l := range w.Assign {
		wit.Assign = append(wit.Assign, Assignment{Name: a.varName(l.Var), Value: l.Value})
	}
	return CheckResult{Check: ch, Verdict: VerdictDependent, Witness: wit}
}
