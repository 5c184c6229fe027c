package service

// The job kinds, each a function of its jobRun. Campaign, prove, leakage
// and multifault (multifault.go) jobs checkpoint at every unit boundary;
// the attack, area and lint kinds run in one uninterruptible step.

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/lint"
	"repro/internal/prove"
	"repro/internal/spn"
	"repro/internal/stdcell"
)

// campaign runs a campaign job: its units are the campaign's batches and
// its checkpoint is (next batch, accumulated counts). Because batch b draws
// all randomness from (seed, b), that pair resumes the campaign
// bit-identically. The submission's durable run record (the
// replay/simulation split) is kept alongside.
func (r *jobRun) campaign(ctx context.Context) (*JobResult, error) {
	req := r.j.req
	e, err := r.s.designs.get(req.Design)
	if err != nil {
		return nil, err
	}
	t, err := r.s.newCampaignTask(r.j.ID, req.Design, e, req.Campaign)
	if err != nil {
		return nil, err
	}
	start, acc := 0, CampaignResult{}
	if r.cp != nil {
		start, acc = r.cp.NextBatch, r.cp.Counts
	}
	view := func(c CampaignResult) *Progress { return &Progress{Done: c.Total, Total: t.camp.Runs, Counts: c} }
	r.progress(view(acc))

	prov := r.s.beginRunRecord(r.j, t)
	var last distProgress // the final advance carries the replay/simulation split
	res, err := r.s.execute(ctx, t, start, acc, func(p distProgress) {
		last = p
		r.commit(&Checkpoint{NextBatch: p.cursor, Counts: p.acc}, view(p.acc))
	})
	prov.finish(err, res, last)
	if err != nil {
		return nil, err
	}
	return &JobResult{Campaign: &res}, nil
}

// prove runs a prove job: its units are the (fault location, model) pairs,
// walked locations outer, models inner. Proofs are deterministic and
// independent per pair, so the completed pairs plus the next index resume
// the job without re-proving anything.
func (r *jobRun) prove(ctx context.Context) (*JobResult, error) {
	m, err := ResolveModule(r.j.req.Design)
	if err != nil {
		return nil, err
	}
	budget := 0
	models := prove.Models()
	if p := r.j.req.Prove; p != nil {
		budget = p.Budget
		if len(p.Models) > 0 {
			models = make([]fault.Model, 0, len(p.Models))
			for _, name := range p.Models {
				fm, err := parseModel(name)
				if err != nil {
					return nil, err
				}
				models = append(models, fm)
			}
		}
	}
	a, err := prove.NewAnalyzer(m, budget)
	if err != nil {
		return nil, err
	}
	locs := a.Locations()
	if len(locs) == 0 {
		return nil, fmt.Errorf("module %s declares no fault points (no %q cell tags)", m.Name, prove.TagPrefix)
	}
	total := len(locs) * len(models)

	res := &ProveResult{Module: m.Name, Budget: a.Budget()}
	done, _ := r.cp.units() // the fold holds one unit per pair before the cursor
	for _, l := range done {
		res.Accumulate(l)
	}
	start := len(done)
	r.progress(&Progress{Done: start, Total: total})
	for pair := start; pair < total; pair++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lr, err := a.Prove(locs[pair/len(models)], models[pair%len(models)])
		if err != nil {
			return nil, err
		}
		loc := NewProveLocation(lr)
		res.Accumulate(loc)
		r.commit(&Checkpoint{Prove: &ProveCheckpoint{NextPair: pair + 1, Done: []ProveLocation{loc}}}, &Progress{Done: pair + 1, Total: total})
	}
	return &JobResult{Prove: res}, nil
}

// leakage runs a leakage job: its units are trace batches. Batches are
// (seed, batch)-deterministic and the streaming t-test accumulator
// serialises bit-exactly, so the evaluator state at any batch boundary
// resumes the evaluation bit-identically — the resumed job simulates
// exactly the remaining batches.
func (r *jobRun) leakage(ctx context.Context) (*JobResult, error) {
	e, err := r.s.designs.get(r.j.req.Design)
	if err != nil {
		return nil, err
	}
	ev, err := buildLeakage(e.d, r.j.req.Leakage)
	if err != nil {
		return nil, err
	}
	total := r.j.req.Leakage.Pairs
	if r.cp != nil && r.cp.Leakage != nil {
		cp := r.cp.Leakage
		if err := ev.Restore(leakage.State{NextBatch: cp.NextBatch, Discarded: cp.Discarded, TTest: cp.TTest}); err != nil {
			return nil, err
		}
	}
	r.progress(&Progress{Done: ev.PairsDone(), Total: total})
	for !ev.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ev.Step()
		st := ev.State() // deep-copies the accumulator
		r.commit(&Checkpoint{Leakage: &LeakageCheckpoint{NextBatch: st.NextBatch, Discarded: st.Discarded, TTest: st.TTest}},
			&Progress{Done: ev.PairsDone(), Total: total})
	}
	return &JobResult{Leakage: NewLeakageResult(ev.Result())}, nil
}

// runAttack executes the attack kinds. The drivers are not incrementally
// interruptible (they are short relative to campaigns), so cancellation is
// honoured at the boundaries. Each attack builds a private design: the FTA
// attack rewires its netlist in place, so it must not touch a cached one.
func runAttack(ctx context.Context, req JobRequest) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := req.Attack
	key := spn.KeyState{uint64(a.Key[0]), uint64(a.Key[1])}
	d, err := BuildDesign(req.Design)
	if err != nil {
		return nil, err
	}
	deviceSeed := uint64(a.DeviceSeed)
	if deviceSeed == 0 {
		deviceSeed = 0x5C017ED
	}

	switch req.Kind {
	case KindDFA:
		t, err := attack.NewTarget(d, key, deviceSeed)
		if err != nil {
			return nil, err
		}
		cfg := attack.DefaultDFAConfig()
		if a.PairsPerNibble > 0 {
			cfg.PairsPerNibble = a.PairsPerNibble
		}
		if a.Model != "" {
			cfg.Model, _ = parseModel(a.Model)
		}
		cfg.BothBranches = a.BothBranches
		cfg.UnknownPolarity = a.UnknownPolarity
		if a.Seed != 0 {
			cfg.Seed = uint64(a.Seed)
		}
		res := attack.RunDFA(t, cfg)
		return &JobResult{DFA: &DFAResult{
			Succeeded:    res.Succeeded,
			Detail:       res.Detail,
			RecoveredKey: [2]U64{U64(res.RecoveredKey[0]), U64(res.RecoveredKey[1])},
		}}, ctx.Err()
	case KindSIFA:
		t, err := attack.NewTarget(d, key, deviceSeed)
		if err != nil {
			return nil, err
		}
		cfg := attack.DefaultSIFAConfig()
		if a.Sbox != nil {
			cfg.SboxIndex = *a.Sbox
		}
		if a.Bit != nil {
			cfg.FaultBit = *a.Bit
		}
		if a.Injections > 0 {
			cfg.Injections = a.Injections
		}
		if a.Seed != 0 {
			cfg.Seed = uint64(a.Seed)
		}
		if cfg.SboxIndex >= d.Spec.NumSboxes() || cfg.FaultBit >= d.Spec.SboxBits {
			return nil, fmt.Errorf("S-box %d bit %d out of range for %s", cfg.SboxIndex, cfg.FaultBit, d.Spec.Name)
		}
		res := attack.RunSIFA(t, cfg)
		return &JobResult{SIFA: &SIFAResult{
			Succeeded:  res.Succeeded,
			Detail:     res.Detail,
			BestGuess:  U64(res.BestGuess),
			TrueSubkey: U64(res.TrueSubkey),
			Usable:     res.Usable,
		}}, ctx.Err()
	case KindFTA:
		cfg := attack.DefaultFTAConfig()
		if a.Sbox != nil {
			cfg.SboxIndex = *a.Sbox
		}
		if a.Repeats > 0 {
			cfg.Repeats = a.Repeats
		}
		if a.ProfilePTs > 0 {
			cfg.ProfilePTs = a.ProfilePTs
		}
		if a.AttackPTs > 0 {
			cfg.AttackPTs = a.AttackPTs
		}
		if a.Seed != 0 {
			cfg.Seed = uint64(a.Seed)
		}
		if cfg.SboxIndex >= d.Spec.NumSboxes() {
			return nil, fmt.Errorf("S-box %d out of range for %s", cfg.SboxIndex, d.Spec.Name)
		}
		res, err := attack.RunFTAOnDesign(d, key, cfg, deviceSeed)
		if err != nil {
			return nil, err
		}
		return &JobResult{FTA: &FTAResult{
			Succeeded:  res.Succeeded,
			Detail:     res.Detail,
			Accuracy:   res.Accuracy,
			Bits:       res.Bits,
			Separation: res.Separation,
		}}, ctx.Err()
	}
	return nil, fmt.Errorf("unknown attack kind %q", req.Kind)
}

// runArea prices a design (or uploaded netlist) in gate equivalents.
func runArea(req JobRequest) (*JobResult, error) {
	m, err := ResolveModule(req.Design)
	if err != nil {
		return nil, err
	}
	rep := stdcell.Nangate45().Area(m)
	byKind := make(map[string]float64, len(rep.ByKind))
	for k, ge := range rep.ByKind {
		byKind[k.String()] = ge
	}
	return &JobResult{Area: &AreaResult{
		Module:        rep.Module,
		Library:       rep.Library,
		Combinational: rep.Combinational,
		Sequential:    rep.Sequential,
		Total:         rep.Total(),
		CellCount:     rep.CellCount,
		ByKind:        byKind,
	}}, nil
}

// runLint audits a design (or uploaded netlist) with the static
// countermeasure linter.
func runLint(req JobRequest) (*JobResult, error) {
	m, err := ResolveModule(req.Design)
	if err != nil {
		return nil, err
	}
	opts := lint.Options{}
	if req.Lint != nil {
		opts.Rules = req.Lint.Rules
		opts.MaxPerRule = req.Lint.MaxPerRule
	}
	rep, err := lint.Run(m, opts)
	if err != nil {
		return nil, err
	}
	return &JobResult{Lint: rep}, nil
}
