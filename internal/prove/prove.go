// Package prove is the formal SIFA-independence prover: where the linter's
// rules prove the countermeasure's *structural* obligations and fault
// campaigns *sample* its behavioural ones, prove decides them exactly. For
// every injectable fault location it builds the faulted cone as BDDs and
// computes, by exact model counting over the randomness variables (λ and
// garbage), whether the distributions of the three campaign outcomes —
// ineffective, detected, effective — depend on key material:
//
//   - ineffective-bias: the number of randomness assignments under which
//     the fault leaves all stored state and outputs unchanged must be the
//     same for every key (otherwise filtering for correct ciphertexts à la
//     SIFA reveals key information);
//   - flag-key-independence: the number of randomness assignments raising
//     the detection flag must be the same for every key (otherwise the
//     detection *rate* is a side channel);
//   - sifa-independence: the distribution of detection conditioned on the
//     fault being ineffective must not depend on the key — the exact
//     conditional the Graz "Proving SIFA Protection" approach checks, and
//     honest even where the two marginals above are individually biased.
//
// Counts are exact big-integer values (bdd.CountRandom), so a verdict of
// "proved-independent" is a proof over all 2^n inputs, not a sample; a
// "dependent" verdict carries a concrete witness assignment; "unknown" is
// returned only when the configured BDD node budget is exceeded.
//
// The analysis model is one fault injected during the first computation
// cycle (cycle 1, the round after load), observed at the injection cycle
// and the cycle after it — when the comparator sees the corrupted
// registers. λ input draws are reused across the two analysed cycles.
package prove

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// DefaultBudget is the BDD node cap used when Options.Budget is zero —
// the same ceiling the lint BDD rules run under.
const DefaultBudget = 4 << 20

// MaxBudget caps any requested node budget at 4 × DefaultBudget = 2^24 live
// nodes: a ceiling on what one (location, model) pair may allocate, well
// inside the int32 range of bdd.Node. Prove jobs accept uploaded netlists,
// so the cap is what keeps a request from sizing the prover's memory.
const MaxBudget = 4 * DefaultBudget

// Check enumerates the three independence obligations proved per fault
// location.
type Check int

// The three checks, in report order.
const (
	// CheckIneffectiveBias proves the count of randomness assignments
	// making the fault ineffective is key-independent.
	CheckIneffectiveBias Check = iota
	// CheckFlagIndependence proves the count of randomness assignments
	// raising the detection flag is key-independent.
	CheckFlagIndependence
	// CheckSIFAIndependence proves the conditional distribution of
	// detection given ineffectiveness is key-independent.
	CheckSIFAIndependence
	// NumChecks is the number of checks per (location, model) pair.
	NumChecks
)

// RuleID returns the lint rule name of the check.
func (c Check) RuleID() string {
	switch c {
	case CheckIneffectiveBias:
		return "ineffective-bias"
	case CheckFlagIndependence:
		return "flag-key-independence"
	case CheckSIFAIndependence:
		return "sifa-independence"
	default:
		return fmt.Sprintf("Check(%d)", int(c))
	}
}

// String names the check after its rule.
func (c Check) String() string { return c.RuleID() }

// Verdict is the outcome of one check at one fault location.
type Verdict int

// Verdicts, ordered so that a higher value dominates when aggregating.
const (
	// VerdictIndependent: proved key-independent over all inputs.
	VerdictIndependent Verdict = iota
	// VerdictUnknown: the BDD node budget was exceeded before a proof.
	VerdictUnknown
	// VerdictDependent: key-dependent, with a concrete witness.
	VerdictDependent
)

// String renders the verdict as the reports print it.
func (v Verdict) String() string {
	switch v {
	case VerdictIndependent:
		return "proved-independent"
	case VerdictDependent:
		return "dependent"
	case VerdictUnknown:
		return "unknown (node budget)"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Assignment is one pinned variable of a witness, named after its net.
type Assignment struct {
	Name  string `json:"name"`
	Value bool   `json:"value"`
}

// Witness is a concrete key-dependence certificate: under the pinned
// assignment (unlisted variables are don't-care), flipping the key
// variable Key moves the count from Lo to Hi.
type Witness struct {
	Key    string       `json:"key"`
	Assign []Assignment `json:"assign,omitempty"`
	Lo     string       `json:"lo"`
	Hi     string       `json:"hi"`
}

// String renders the witness compactly.
func (w *Witness) String() string {
	s := ""
	for _, a := range w.Assign {
		v := "0"
		if a.Value {
			v = "1"
		}
		s += a.Name + "=" + v + " "
	}
	return fmt.Sprintf("%skey bit %s separates counts %s vs %s", s, w.Key, w.Lo, w.Hi)
}

// CheckResult is one check's outcome.
type CheckResult struct {
	Check   Check    `json:"check"`
	Verdict Verdict  `json:"verdict"`
	Witness *Witness `json:"witness,omitempty"`
}

// Location is one injectable fault point: a net plus the fault-point tag
// that selected it.
type Location struct {
	Net  netlist.Net `json:"net"`
	Name string      `json:"name"`
	Tag  string      `json:"tag,omitempty"`
}

// LocationResult is the prover's output for one (location, model) pair.
type LocationResult struct {
	Location Location               `json:"location"`
	Model    fault.Model            `json:"model"`
	Checks   [NumChecks]CheckResult `json:"checks"`
	// Nodes is the manager's live BDD node count after this location.
	Nodes int `json:"nodes"`
}

// Verdict aggregates the location's checks: the worst individual verdict.
func (lr *LocationResult) Verdict() Verdict {
	v := VerdictIndependent
	for i := range lr.Checks {
		if lr.Checks[i].Verdict > v {
			v = lr.Checks[i].Verdict
		}
	}
	return v
}

// Result is a full prover run over one module.
type Result struct {
	Module string `json:"module"`
	Budget int    `json:"budget"`
	// Locations holds one entry per (location, model) pair, locations
	// outer, models inner — the order the service checkpoints in.
	Locations []LocationResult `json:"locations"`
	// Aggregates over per-location aggregate verdicts.
	Proved    int `json:"proved"`
	Dependent int `json:"dependent"`
	Unknown   int `json:"unknown"`
	// PeakNodes is the highest live BDD node count seen during the run.
	PeakNodes int `json:"peak_nodes"`
}

// Clean reports whether every (location, model) pair proved independent.
func (r *Result) Clean() bool { return r.Dependent == 0 && r.Unknown == 0 }

// Models returns the default fault models proved per location.
func Models() []fault.Model {
	return []fault.Model{fault.StuckAt0, fault.StuckAt1, fault.BitFlip}
}

// Options configures a prover run.
type Options struct {
	// Budget caps the BDD manager's live nodes; 0 means DefaultBudget.
	Budget int
	// Models are the fault models proved per location; nil means Models().
	Models []fault.Model
	// Locations overrides the fault locations; nil means the module's
	// tagged fault points (TaggedLocations).
	Locations []Location
}

// Run proves all three checks for every (location, model) pair of the
// module. It returns an error for modules the analysis model does not
// cover (combinational loops, sequential modules without a load port,
// registers not initialised by the load cycle); budget overflows are not
// errors — they surface as unknown verdicts.
func Run(m *netlist.Module, opts Options) (*Result, error) {
	a, err := NewAnalyzer(m, opts.Budget)
	if err != nil {
		return nil, err
	}
	locs := opts.Locations
	if locs == nil {
		locs = a.Locations()
	}
	models := opts.Models
	if models == nil {
		models = Models()
	}
	res := &Result{Module: m.Name, Budget: a.Budget()}
	for _, loc := range locs {
		for _, model := range models {
			lr, err := a.Prove(loc, model)
			if err != nil {
				return nil, err
			}
			res.Add(lr)
		}
	}
	res.PeakNodes = a.PeakNodes()
	return res, nil
}

// Add appends one location result and updates the aggregate counters,
// so resumed runs can rebuild a Result from checkpointed entries.
func (r *Result) Add(lr LocationResult) {
	r.Locations = append(r.Locations, lr)
	switch lr.Verdict() {
	case VerdictIndependent:
		r.Proved++
	case VerdictDependent:
		r.Dependent++
	default:
		r.Unknown++
	}
	if lr.Nodes > r.PeakNodes {
		r.PeakNodes = lr.Nodes
	}
}
