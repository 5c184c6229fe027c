// Package service turns the scone engine into a long-lived fault-campaign
// server: a bounded FIFO job queue, a worker pool over fault.Campaign
// and the attack drivers, per-job seed-deterministic checkpoint/resume and
// expvar-style metrics. cmd/sconed exposes it over HTTP/JSON; the wire
// types in this file are its request/response schema and are shared with
// `sconectl sim -json` so CLI and daemon outputs are diff-able.
//
// Determinism contract: a campaign job is defined entirely by its request
// (design spec, key, faults, run count, seed). Batch b of a campaign
// derives all randomness from (seed, b), so the service may checkpoint at
// any batch boundary, be killed, and resume on a fresh process — the final
// Result is bit-identical to an uninterrupted fault.Campaign.Execute with
// the same parameters.
package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/lint"
	"repro/internal/power"
	"repro/internal/prove"
)

// Kind enumerates the job types the service executes. Together they make
// the whole engine reachable over the wire: simulation campaigns, the
// attack drivers, area pricing and the static countermeasure linter.
type Kind string

// Supported job kinds.
const (
	KindCampaign   Kind = "campaign"
	KindDFA        Kind = "dfa"
	KindSIFA       Kind = "sifa"
	KindFTA        Kind = "fta"
	KindArea       Kind = "area"
	KindLint       Kind = "lint"
	KindProve      Kind = "prove"
	KindMultiFault Kind = "multifault"
	KindLeakage    Kind = "leakage"
)

// U64 is a uint64 that travels as a hex string ("0x1f"). JSON numbers lose
// precision above 2^53, and seeds, keys and subkey guesses are genuinely
// 64-bit; the string form keeps them exact and diff-able.
type U64 uint64

// MarshalJSON renders the value as a 0x-prefixed hex string.
func (u U64) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", "0x"+strconv.FormatUint(uint64(u), 16))), nil
}

// UnmarshalJSON accepts a hex or decimal string, or a plain JSON number.
func (u *U64) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if len(s) >= 2 && s[0] == '"' {
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
	}
	v, err := ParseU64(s)
	if err != nil {
		return err
	}
	*u = v
	return nil
}

// ParseU64 parses the wire forms of U64: "0x.." hex or decimal.
func ParseU64(s string) (U64, error) {
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return 0, fmt.Errorf("service: bad uint64 %q", s)
	}
	return U64(v), nil
}

// DesignSpec names the design a job operates on: either a core synthesised
// on the fly (cipher/scheme/entropy/engine, sconectl's design flags) or,
// for area and lint jobs, an inline netlist in the scone text format.
type DesignSpec struct {
	Cipher  string `json:"cipher,omitempty"`  // present80, gift64, scone64
	Scheme  string `json:"scheme,omitempty"`  // unprotected, naive, acisp, three-in-one
	Entropy string `json:"entropy,omitempty"` // prime, per-round, per-sbox
	Engine  string `json:"engine,omitempty"`  // anf, bdd
	// SeparateSbox selects the ACISP-style split S-box layout ablation.
	SeparateSbox bool `json:"separate_sbox,omitempty"`
	// Optimize runs the synthesis optimiser (area, lint and prove jobs
	// only: optimised designs lose the probe points fault campaigns
	// address).
	Optimize bool `json:"optimize,omitempty"`
	// Netlist is an inline text netlist (area/lint jobs), read laxly so
	// the linter can be pointed at structurally broken modules.
	Netlist string `json:"netlist,omitempty"`
}

// FaultSpec locates one injected fault by S-box coordinates, the addressing
// the paper's campaigns use.
type FaultSpec struct {
	// Branch is "actual" (default) or "redundant".
	Branch string `json:"branch,omitempty"`
	// Sbox/Bit select the faulted S-box input wire.
	Sbox int `json:"sbox"`
	Bit  int `json:"bit"`
	// Model is "stuck-at-0" (default), "stuck-at-1" or "bit-flip".
	Model string `json:"model,omitempty"`
	// Cycle is the active cycle; nil means the last round.
	Cycle *int `json:"cycle,omitempty"`
}

// PersistentSpec is the wire form of fault.PersistentFault: one S-box table
// entry XOR-corrupted once, before the campaign's first encryption.
type PersistentSpec struct {
	Entry int `json:"entry"`
	Mask  U64 `json:"mask"`
}

// CampaignSpec parameterises a campaign job. It carries exactly what the
// campaign's content address covers; execution policy (how parallel the
// simulation runs) is a setting of the host that runs it, never of the
// request.
type CampaignSpec struct {
	Runs   int         `json:"runs"`
	Seed   U64         `json:"seed"`
	Key    [2]U64      `json:"key"`
	Faults []FaultSpec `json:"faults"`
	// Persistent, when set, corrupts the S-box table for the whole
	// campaign (the PFA model). A persistent campaign carries no transient
	// faults.
	Persistent *PersistentSpec `json:"persistent,omitempty"`
}

// MultiFaultSpec parameterises a multifault job: a planned sweep over many
// adversary placements of one design, each placement executed as its own
// seed-deterministic campaign. Mode "kfault" sweeps every K-tuple of fault
// sites (optionally cone- and S-box-restricted, adaptively pruned); mode
// "persistent" sweeps S-box table corruptions.
type MultiFaultSpec struct {
	// Mode is "kfault" (default) or "persistent".
	Mode string `json:"mode,omitempty"`
	// K is the tuple arity for kfault mode; 0 means 2.
	K int `json:"k,omitempty"`
	// Model is the transient fault model for kfault mode ("stuck-at-0"
	// default, "stuck-at-1", "bit-flip").
	Model string `json:"model,omitempty"`
	// Cycle is the active cycle for kfault tuples; nil means the last
	// round.
	Cycle *int `json:"cycle,omitempty"`
	// RunsPerTuple is the campaign size of each placement.
	RunsPerTuple int    `json:"runs_per_tuple"`
	Seed         U64    `json:"seed"`
	Key          [2]U64 `json:"key"`
	// Sboxes restricts candidate sites (kfault) or corrupted table rows
	// (persistent) — the lever that keeps C(n, K) campaigns tractable.
	Sboxes []int `json:"sboxes,omitempty"`
	// Cone, when set, keeps only kfault sites inside the forward cone of
	// the named location.
	Cone *FaultSpec `json:"cone,omitempty"`
	// Prune skips kfault tuples containing a site whose singleton campaign
	// is already known ineffective (prover verdicts or cached tallies).
	Prune bool `json:"prune,omitempty"`
	// MaxTuples truncates the plan; 0 means no truncation. A kfault plan
	// still longer than 2^16 placements is refused at submission.
	MaxTuples int `json:"max_tuples,omitempty"`
}

// LeakageSpec parameterises a leakage job: a fixed-vs-random TVLA
// evaluation (Welch's t-test per clock cycle over power traces) of the
// job's design, optionally under injected faults with SIFA-style
// ineffective-run filtering. Batch b of an evaluation derives all
// randomness from (seed, b) — the campaign determinism contract — so the
// job checkpoints at trace-batch boundaries and resumes bit-identically.
type LeakageSpec struct {
	// Pairs is the number of fixed/random trace pairs to collect, at most
	// leakage.MaxPairs (maxRuns/2): a leakage job simulates at most as
	// many traces as a campaign simulates runs.
	Pairs int    `json:"pairs"`
	Seed  U64    `json:"seed"`
	Key   [2]U64 `json:"key"`
	// Model selects the power model: "hd"/"hamming-distance" (default)
	// or "hw"/"hamming-weight".
	Model string `json:"model,omitempty"`
	// FixedPT is the fixed class's plaintext (0 is a legitimate value;
	// clients wanting the conventional TVLA constant pass it explicitly).
	FixedPT U64 `json:"fixed_pt,omitempty"`
	// Faults, when present, are injected into every run; only SIFA-usable
	// (ineffective) runs enter the t-test.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// AttackSpec parameterises the dfa, sifa and fta job kinds. Zero fields
// take the attack drivers' published defaults.
type AttackSpec struct {
	Key [2]U64 `json:"key"`
	// DeviceSeed drives the victim's TRNG model; Seed the attacker.
	DeviceSeed U64 `json:"device_seed,omitempty"`
	Seed       U64 `json:"seed,omitempty"`

	// DFA.
	PairsPerNibble  int    `json:"pairs_per_nibble,omitempty"`
	Model           string `json:"model,omitempty"`
	BothBranches    bool   `json:"both_branches,omitempty"`
	UnknownPolarity bool   `json:"unknown_polarity,omitempty"`

	// SIFA (and FTA's probed S-box).
	Sbox       *int `json:"sbox,omitempty"`
	Bit        *int `json:"bit,omitempty"`
	Injections int  `json:"injections,omitempty"`

	// FTA.
	Repeats    int `json:"repeats,omitempty"`
	ProfilePTs int `json:"profile_pts,omitempty"`
	AttackPTs  int `json:"attack_pts,omitempty"`
}

// LintSpec parameterises a lint job.
type LintSpec struct {
	Rules      []string `json:"rules,omitempty"`
	MaxPerRule int      `json:"max_per_rule,omitempty"`
}

// ProveSpec parameterises a prove job. Zero values take the prover's
// defaults: all three fault models per location, prove.DefaultBudget nodes.
type ProveSpec struct {
	// Models restricts the fault models proved per location
	// ("stuck-at-0", "stuck-at-1", "bit-flip"); empty means all three.
	Models []string `json:"models,omitempty"`
	// Budget caps the BDD manager's live node count, at most
	// prove.MaxBudget; 0 means the prover default. Exceeding it yields
	// unknown verdicts, not failure.
	Budget int `json:"budget,omitempty"`
}

// JobRequest is the submission payload.
type JobRequest struct {
	Kind       Kind            `json:"kind"`
	Design     DesignSpec      `json:"design"`
	Campaign   *CampaignSpec   `json:"campaign,omitempty"`
	Attack     *AttackSpec     `json:"attack,omitempty"`
	Lint       *LintSpec       `json:"lint,omitempty"`
	Prove      *ProveSpec      `json:"prove,omitempty"`
	MultiFault *MultiFaultSpec `json:"multifault,omitempty"`
	Leakage    *LeakageSpec    `json:"leakage,omitempty"`
}

// maxRuns caps a campaign's runs and a sweep's runs per placement: 2^26
// runs, over 800× the paper's 80,000-run campaigns. Registering a campaign
// looks up every batch in the result store and cuts all of its leases under
// one lock, and a results query scans every batch, so the cap bounds both.
// A leakage job's pairs have the same 2^26-trace budget: leakage.MaxPairs
// is maxRuns/2.
const maxRuns = 1 << 26

// Validate rejects malformed requests before they reach the queue; Submit
// then checks what the request addresses against its built design, so a
// submission error is a synchronous 400 rather than a failed job.
func (r *JobRequest) Validate() error {
	switch r.Kind {
	case KindCampaign:
		c := r.Campaign
		if c == nil {
			return fmt.Errorf("campaign job needs a campaign spec")
		}
		if c.Runs <= 0 || c.Runs > maxRuns {
			return fmt.Errorf("campaign needs a run count in 1..%d (got %d)", maxRuns, c.Runs)
		}
		if c.Persistent != nil {
			if len(c.Faults) > 0 {
				return fmt.Errorf("a persistent campaign cannot also inject transient faults")
			}
			if c.Persistent.Entry < 0 || c.Persistent.Mask == 0 {
				return fmt.Errorf("persistent fault needs a non-negative entry and non-zero mask")
			}
			break
		}
		if len(c.Faults) == 0 {
			return fmt.Errorf("campaign needs at least one fault")
		}
		if err := validateFaults(c.Faults); err != nil {
			return err
		}
	case KindDFA, KindSIFA, KindFTA:
		if r.Attack == nil {
			return fmt.Errorf("%s job needs an attack spec", r.Kind)
		}
		if _, err := parseModel(r.Attack.Model); err != nil {
			return err
		}
		if a := r.Attack; (a.Sbox != nil && *a.Sbox < 0) || (a.Bit != nil && *a.Bit < 0) {
			return fmt.Errorf("%s attack: negative S-box coordinates", r.Kind)
		}
	case KindMultiFault:
		m := r.MultiFault
		if m == nil {
			return fmt.Errorf("multifault job needs a multifault spec")
		}
		switch m.Mode {
		case "", "kfault":
			if m.K < 0 {
				return fmt.Errorf("multifault needs a non-negative tuple arity (got %d)", m.K)
			}
			if _, err := parseModel(m.Model); err != nil {
				return err
			}
			if m.Cone != nil {
				if _, err := parseBranch(m.Cone.Branch); err != nil {
					return fmt.Errorf("cone: %w", err)
				}
				if m.Cone.Sbox < 0 || m.Cone.Bit < 0 {
					return fmt.Errorf("cone: negative S-box coordinates")
				}
			}
		case "persistent":
			if m.Cone != nil || m.Prune {
				return fmt.Errorf("cone restriction and pruning apply to kfault mode only")
			}
		default:
			return fmt.Errorf("unknown multifault mode %q", m.Mode)
		}
		if m.RunsPerTuple <= 0 || m.RunsPerTuple > maxRuns {
			return fmt.Errorf("multifault needs a runs_per_tuple in 1..%d (got %d)", maxRuns, m.RunsPerTuple)
		}
		if m.MaxTuples < 0 {
			return fmt.Errorf("multifault needs a non-negative max_tuples (got %d)", m.MaxTuples)
		}
		for i, s := range m.Sboxes {
			if s < 0 {
				return fmt.Errorf("sbox filter %d: negative index", i)
			}
		}
	case KindLeakage:
		l := r.Leakage
		if l == nil {
			return fmt.Errorf("leakage job needs a leakage spec")
		}
		if l.Pairs <= 0 || l.Pairs > leakage.MaxPairs {
			return fmt.Errorf("leakage needs a pair count in 1..%d (got %d)", leakage.MaxPairs, l.Pairs)
		}
		if _, ok := power.ParseModel(l.Model); !ok {
			return fmt.Errorf("unknown power model %q", l.Model)
		}
		if err := validateFaults(l.Faults); err != nil {
			return err
		}
	case KindArea, KindLint:
		// Design-only kinds.
	case KindProve:
		if p := r.Prove; p != nil {
			for i, m := range p.Models {
				if _, err := parseModel(m); err != nil {
					return fmt.Errorf("prove model %d: %w", i, err)
				}
			}
			if p.Budget < 0 || p.Budget > prove.MaxBudget {
				return fmt.Errorf("prove needs a node budget in 0..%d (got %d)", prove.MaxBudget, p.Budget)
			}
		}
	default:
		return fmt.Errorf("unknown job kind %q", r.Kind)
	}
	// Only the design-inspecting kinds take an inline netlist or an
	// optimised design: optimisation removes the probe points that
	// campaigns, attacks and leakage runs address.
	if r.Kind != KindArea && r.Kind != KindLint && r.Kind != KindProve {
		if r.Design.Netlist != "" {
			return fmt.Errorf("%s jobs need a synthesised design, not an inline netlist", r.Kind)
		}
		if r.Design.Optimize {
			return fmt.Errorf("%s jobs need an unoptimised design", r.Kind)
		}
	}
	if r.Design.Netlist == "" {
		if _, _, err := ParseDesign(r.Design); err != nil {
			return err
		}
	}
	return nil
}

// validateFaults checks the wire vocabulary and coordinate signs of a fault
// list; Submit checks ranges against the built design (resolveFaults).
func validateFaults(specs []FaultSpec) error {
	for i, f := range specs {
		if _, err := parseBranch(f.Branch); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		if _, err := parseModel(f.Model); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		if f.Sbox < 0 || f.Bit < 0 {
			return fmt.Errorf("fault %d: negative S-box coordinates", i)
		}
	}
	return nil
}

// State is a job's lifecycle position.
type State string

// Job states. A drained (SIGTERM'd) campaign goes back to queued with its
// checkpoint intact, so a restarted service resumes it transparently.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// CampaignResult is the wire form of fault.Result — the one schema shared
// by the daemon, the client and `sconectl sim -json`.
type CampaignResult struct {
	Total       int `json:"total"`
	Ineffective int `json:"ineffective"`
	Detected    int `json:"detected"`
	Effective   int `json:"effective"`
	// Corrected is non-zero only for correcting (majority-vote) designs:
	// runs where a fault was sensed and the correct ciphertext still
	// released.
	Corrected int `json:"corrected,omitempty"`
}

// NewCampaignResult converts an engine result to the wire form.
func NewCampaignResult(r fault.Result) CampaignResult {
	return CampaignResult{
		Total:       r.Total,
		Ineffective: r.Ineffective(),
		Detected:    r.Detected(),
		Effective:   r.Effective(),
		Corrected:   r.Corrected(),
	}
}

// Add accumulates another partial result (checkpoint arithmetic).
func (c *CampaignResult) Add(r fault.Result) {
	c.Total += r.Total
	c.Ineffective += r.Ineffective()
	c.Detected += r.Detected()
	c.Effective += r.Effective()
	c.Corrected += r.Corrected()
}

// Accumulate folds another wire-form partial into c — the coordinator's
// batch-order merge of worker lease tallies. Because every count is an
// integer sum over disjoint batch ranges, merge order cannot change the
// totals; ordering only matters for the checkpoint cursor.
func (c *CampaignResult) Accumulate(r CampaignResult) {
	c.Total += r.Total
	c.Ineffective += r.Ineffective
	c.Detected += r.Detected
	c.Effective += r.Effective
	c.Corrected += r.Corrected
}

// DFAResult is the wire form of a DFA outcome.
type DFAResult struct {
	Succeeded    bool   `json:"succeeded"`
	Detail       string `json:"detail"`
	RecoveredKey [2]U64 `json:"recovered_key"`
}

// SIFAResult is the wire form of a SIFA outcome.
type SIFAResult struct {
	Succeeded  bool   `json:"succeeded"`
	Detail     string `json:"detail"`
	BestGuess  U64    `json:"best_guess"`
	TrueSubkey U64    `json:"true_subkey"`
	Usable     int    `json:"usable"`
}

// FTAResult is the wire form of an FTA outcome.
type FTAResult struct {
	Succeeded  bool      `json:"succeeded"`
	Detail     string    `json:"detail"`
	Accuracy   float64   `json:"accuracy"`
	Bits       int       `json:"bits"`
	Separation []float64 `json:"separation,omitempty"`
}

// AreaResult is the wire form of a gate-equivalent area report.
type AreaResult struct {
	Module        string             `json:"module"`
	Library       string             `json:"library"`
	Combinational float64            `json:"combinational_ge"`
	Sequential    float64            `json:"sequential_ge"`
	Total         float64            `json:"total_ge"`
	CellCount     int                `json:"cell_count"`
	ByKind        map[string]float64 `json:"by_kind,omitempty"`
}

// ProveCheck is the wire form of one independence check's outcome at one
// (fault location, model) pair.
type ProveCheck struct {
	Check   string `json:"check"`
	Verdict string `json:"verdict"`
	Witness string `json:"witness,omitempty"`
}

// ProveLocation is the wire form of prove.LocationResult: one fault
// location under one fault model, with the three checks' verdicts. It is
// also the checkpoint unit of a prove job — Nodes rides along so a resumed
// job reconstructs the peak node count without re-proving.
type ProveLocation struct {
	Name    string       `json:"name"`
	Tag     string       `json:"tag,omitempty"`
	Model   string       `json:"model"`
	Verdict string       `json:"verdict"`
	Nodes   int          `json:"nodes"`
	Checks  []ProveCheck `json:"checks"`
}

// NewProveLocation converts an engine location result to the wire form.
func NewProveLocation(lr prove.LocationResult) ProveLocation {
	pl := ProveLocation{
		Name:    lr.Location.Name,
		Tag:     lr.Location.Tag,
		Model:   lr.Model.String(),
		Verdict: lr.Verdict().String(),
		Nodes:   lr.Nodes,
		Checks:  make([]ProveCheck, 0, len(lr.Checks)),
	}
	for i := range lr.Checks {
		cr := &lr.Checks[i]
		pc := ProveCheck{Check: cr.Check.String(), Verdict: cr.Verdict.String()}
		if cr.Witness != nil {
			pc.Witness = cr.Witness.String()
		}
		pl.Checks = append(pl.Checks, pc)
	}
	return pl
}

// ProveResult is the wire form of a full prover run.
type ProveResult struct {
	Module    string `json:"module"`
	Budget    int    `json:"budget"`
	Proved    int    `json:"proved"`
	Dependent int    `json:"dependent"`
	Unknown   int    `json:"unknown"`
	// PeakNodes is the largest per-pair live BDD node count of the run.
	PeakNodes int             `json:"peak_nodes"`
	Locations []ProveLocation `json:"locations"`
}

// Clean reports whether every (location, model) pair proved independent.
func (p *ProveResult) Clean() bool { return p.Dependent == 0 && p.Unknown == 0 }

// Accumulate folds one wire-form pair into the aggregate — the same
// checkpoint arithmetic for fresh proofs and for pairs replayed from a
// resumed job's checkpoint.
func (p *ProveResult) Accumulate(l ProveLocation) {
	p.Locations = append(p.Locations, l)
	switch l.Verdict {
	case prove.VerdictIndependent.String():
		p.Proved++
	case prove.VerdictDependent.String():
		p.Dependent++
	default:
		p.Unknown++
	}
	if l.Nodes > p.PeakNodes {
		p.PeakNodes = l.Nodes
	}
}

// TupleResult is the outcome of one multifault placement: one tuple's (or
// corruption's) campaign tally, or the record that pruning skipped it. It is
// the checkpoint unit of a multifault job, exactly as ProveLocation is for
// prove jobs.
type TupleResult struct {
	// Index is the placement's position in the plan's deterministic
	// enumeration — stable across resumes whether or not pruning improves.
	Index int `json:"index"`
	// Sites names the tuple's member locations (kfault mode).
	Sites []string `json:"sites,omitempty"`
	// Entry/Mask identify the corruption (persistent mode).
	Entry int `json:"entry,omitempty"`
	Mask  U64 `json:"mask,omitempty"`
	// Pruned marks a placement skipped because a member site is known
	// inert; Counts is then zero.
	Pruned bool `json:"pruned,omitempty"`
	// Counts is the placement campaign's tally.
	Counts CampaignResult `json:"counts"`
}

// MultiFaultResult is the wire form of a full multifault sweep.
type MultiFaultResult struct {
	Mode string `json:"mode"`
	K    int    `json:"k,omitempty"`
	// Sites lists the plan's candidate locations (kfault mode), the
	// namespace TupleResult.Sites draws from.
	Sites []string `json:"sites,omitempty"`
	// Planned is the plan length; Truncated whether max_tuples cut it.
	Planned   int  `json:"planned"`
	Truncated bool `json:"truncated,omitempty"`
	// Executed and Pruned partition the placements.
	Executed int `json:"executed"`
	Pruned   int `json:"pruned"`
	// Escapes counts placements with at least one effective run — the
	// adversary placements that defeat the design.
	Escapes int `json:"escapes"`
	// Corrects counts placements where every sensed fault was recovered
	// (corrected > 0 and effective == 0).
	Corrects int `json:"corrects"`
	// Totals sums every placement campaign.
	Totals CampaignResult `json:"totals"`
	// Tuples holds the per-placement outcomes in plan order.
	Tuples []TupleResult `json:"tuples"`
}

// Accumulate folds one placement outcome into the aggregate — shared by
// fresh executions and checkpoint replays, like ProveResult.Accumulate.
func (m *MultiFaultResult) Accumulate(t TupleResult) {
	m.Tuples = append(m.Tuples, t)
	if t.Pruned {
		m.Pruned++
		return
	}
	m.Executed++
	m.Totals.Accumulate(t.Counts)
	if t.Counts.Effective > 0 {
		m.Escapes++
	} else if t.Counts.Corrected > 0 {
		m.Corrects++
	}
}

// LeakageResult is the wire form of a TVLA evaluation's outcome.
type LeakageResult struct {
	Model string `json:"model"`
	Pairs int    `json:"pairs"`
	// Fixed/Random count the traces kept per class after SIFA filtering;
	// Discarded the filtered runs.
	Fixed     int `json:"fixed_traces"`
	Random    int `json:"random_traces"`
	Discarded int `json:"discarded,omitempty"`
	// Samples is the trace length in clock cycles.
	Samples int `json:"samples"`
	// MaxAbsT is the largest |t| over all cycles; Leaks the TVLA verdict
	// (|t| > 4.5 anywhere).
	MaxAbsT float64 `json:"max_abs_t"`
	Leaks   bool    `json:"leaks"`
	// TValues is Welch's t per cycle.
	TValues []float64 `json:"t_values,omitempty"`
}

// NewLeakageResult converts an evaluator result to the wire form.
func NewLeakageResult(r leakage.Result) *LeakageResult {
	return &LeakageResult{
		Model:     r.Model,
		Pairs:     r.Pairs,
		Fixed:     r.Fixed,
		Random:    r.Random,
		Discarded: r.Discarded,
		Samples:   r.Samples,
		MaxAbsT:   r.MaxAbsT,
		Leaks:     r.Leaks,
		TValues:   r.TValues,
	}
}

// JobResult is the kind-discriminated result payload; exactly one field is
// set on a done job.
type JobResult struct {
	Campaign   *CampaignResult   `json:"campaign,omitempty"`
	DFA        *DFAResult        `json:"dfa,omitempty"`
	SIFA       *SIFAResult       `json:"sifa,omitempty"`
	FTA        *FTAResult        `json:"fta,omitempty"`
	Area       *AreaResult       `json:"area,omitempty"`
	Lint       *lint.Report      `json:"lint,omitempty"`
	Prove      *ProveResult      `json:"prove,omitempty"`
	MultiFault *MultiFaultResult `json:"multifault,omitempty"`
	Leakage    *LeakageResult    `json:"leakage,omitempty"`
}

// Progress is a point-in-time view of a running campaign job, published at
// every checkpoint boundary.
type Progress struct {
	Done   int            `json:"done"`
	Total  int            `json:"total"`
	Counts CampaignResult `json:"counts"`
}

// JobStatus is the wire view of a job.
type JobStatus struct {
	ID       string     `json:"id"`
	Kind     Kind       `json:"kind"`
	State    State      `json:"state"`
	Error    string     `json:"error,omitempty"`
	Progress *Progress  `json:"progress,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	// Resumed counts checkpoint resumes across service restarts and
	// drains.
	Resumed   int        `json:"resumed,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// Event is one NDJSON line of a job's progress stream: a status snapshot
// ("status"), a checkpoint-granular progress update ("progress"), or the
// final snapshot carrying the result ("result").
type Event struct {
	Type     string     `json:"type"`
	Job      *JobStatus `json:"job,omitempty"`
	Progress *Progress  `json:"progress,omitempty"`
}
