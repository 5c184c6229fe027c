package service

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
)

// placement is one planned multifault adversary: its stable plan index, the
// labels reports use, and the campaign spec that executes it. A pruned
// placement carries no spec — it is recorded, never simulated.
type placement struct {
	index  int
	sites  []string
	entry  int
	mask   uint64
	pruned bool
	spec   *CampaignSpec
}

// placementExec runs one placement (or pruning singleton) campaign to
// completion; id ("t<i>" for placements, "s<i>" for singletons) names it in
// the lease table under the job's ID.
type placementExec func(id string, cs *CampaignSpec) (CampaignResult, error)

// multiFault runs a multifault job: the plan is generated (and optionally
// pruned against singleton evidence) when the job starts, and its units are
// the placements in plan order. Each placement is itself a
// seed-deterministic campaign run through the service's campaign executor —
// the same (seed, batch) derivation as a standalone campaign job with the
// same spec, so placement tallies replay from the result store and are
// bit-identical whether executed locally, through the lease fabric, or
// spliced from cache. Placement boundaries, not batch or lease boundaries,
// are the checkpoint grain: an interrupted placement re-executes on resume
// and its finished batches splice back in from the store.
func (r *jobRun) multiFault(ctx context.Context) (*JobResult, error) {
	req := r.j.req
	e, err := r.s.designs.get(req.Design)
	if err != nil {
		return nil, err
	}
	exec := placementExec(func(id string, cs *CampaignSpec) (CampaignResult, error) {
		t, err := r.s.newCampaignTask(r.j.ID+"/"+id, req.Design, e, cs)
		if err != nil {
			return CampaignResult{}, err
		}
		return r.s.execute(ctx, t, 0, CampaignResult{}, nil)
	})
	res, placements, err := planMultiFault(e.d, req.MultiFault, exec)
	if err != nil {
		return nil, err
	}

	_, done := r.cp.units() // the fold holds one unit per placement before the cursor
	for _, tr := range done {
		res.Accumulate(tr)
	}
	start := len(done)
	r.progress(&Progress{Done: start, Total: res.Planned, Counts: res.Totals})
	for idx := start; idx < len(placements); idx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pl := placements[idx]
		tr := TupleResult{Index: pl.index, Sites: pl.sites, Entry: pl.entry, Mask: U64(pl.mask), Pruned: pl.pruned}
		if !pl.pruned {
			counts, err := exec(fmt.Sprintf("t%d", pl.index), pl.spec)
			if err != nil {
				return nil, err
			}
			tr.Counts = counts
		}
		res.Accumulate(tr)
		r.commit(&Checkpoint{MultiFault: &MultiFaultCheckpoint{NextTuple: idx + 1, Done: []TupleResult{tr}}},
			&Progress{Done: idx + 1, Total: res.Planned, Counts: res.Totals})
	}
	return &JobResult{MultiFault: res}, nil
}

// planMultiFault expands a validated multifault spec against the built
// design into the result skeleton and the placement list. Everything here is
// deterministic in the request: the site order is the design's declared
// fault-point order, tuple enumeration is lexicographic, and the inert
// oracle is computed from seed-deterministic singleton campaigns — so two
// services (or one service across a drain/resume) always agree on which
// index names which placement and which placements prune.
func planMultiFault(d *core.Design, m *MultiFaultSpec, exec placementExec) (*MultiFaultResult, []placement, error) {
	res := &MultiFaultResult{Mode: m.Mode}
	if res.Mode == "" {
		res.Mode = "kfault"
	}

	if res.Mode == "persistent" {
		cs, truncated, err := plan.PersistentPlan(d.Spec.SboxBits, m.Sboxes, m.MaxTuples)
		if err != nil {
			return nil, nil, err
		}
		res.Planned = len(cs)
		res.Truncated = truncated
		placements := make([]placement, len(cs))
		for i, c := range cs {
			placements[i] = placement{
				index: i,
				entry: c.Entry,
				mask:  c.Mask,
				spec: &CampaignSpec{
					Runs:       m.RunsPerTuple,
					Seed:       m.Seed,
					Key:        m.Key,
					Persistent: &PersistentSpec{Entry: c.Entry, Mask: U64(c.Mask)},
				},
			}
		}
		return res, placements, nil
	}

	p, err := kfaultPlan(d, m)
	if err != nil {
		return nil, nil, err
	}
	res.K = p.K
	res.Planned = len(p.Tuples)
	res.Truncated = p.Truncated
	for _, site := range p.Sites {
		res.Sites = append(res.Sites, site.Tag)
	}

	var inert map[int]bool
	if m.Prune {
		inert, err = inertSites(p.Sites, m, exec)
		if err != nil {
			return nil, nil, err
		}
	}

	placements := make([]placement, len(p.Tuples))
	for i, tup := range p.Tuples {
		pl := placement{index: i}
		for _, si := range tup {
			pl.sites = append(pl.sites, p.Sites[si].Tag)
		}
		if m.Prune && plan.PruneIndex(tup, func(si int) bool { return inert[si] }) >= 0 {
			pl.pruned = true
			placements[i] = pl
			continue
		}
		cs := &CampaignSpec{Runs: m.RunsPerTuple, Seed: m.Seed, Key: m.Key}
		for _, si := range tup {
			cs.Faults = append(cs.Faults, siteFault(p.Sites[si], m))
		}
		pl.spec = cs
		placements[i] = pl
	}
	return res, placements, nil
}

// kfaultPlan generates a kfault sweep's plan on the design it runs on: the
// arity (default 2), the S-box filter, the cone and the tuple bound.
// plan.New refuses an arity above the candidate-site count and a plan over
// its length cap before it enumerates anything.
func kfaultPlan(d *core.Design, m *MultiFaultSpec) (*plan.Plan, error) {
	req := plan.Request{K: m.K, Sboxes: m.Sboxes, MaxTuples: m.MaxTuples}
	if req.K == 0 {
		req.K = 2
	}
	if m.Cone != nil {
		faults, err := resolveFaults(d, []FaultSpec{*m.Cone})
		if err != nil {
			return nil, fmt.Errorf("cone: %w", err)
		}
		req.Cone = faults[0].Net
	}
	return plan.New(d, req)
}

// checkMultiFault checks a validated sweep against the design it runs on:
// the S-box filter (table rows in persistent mode), the tuples' cycle and,
// in kfault mode, the plan itself — its cone, its arity and its length.
func checkMultiFault(d *core.Design, m *MultiFaultSpec) error {
	n, unit := d.Spec.NumSboxes(), "S-boxes"
	if m.Mode == "persistent" {
		n, unit = 1<<d.Spec.SboxBits, "S-box table rows"
	}
	for i, sb := range m.Sboxes {
		if sb >= n {
			return fmt.Errorf("sbox filter %d: %d outside the %d %s of %s", i, sb, n, unit, d.Spec.Name)
		}
	}
	if m.Mode == "persistent" {
		return nil
	}
	if c := m.Cycle; c != nil && (*c < 0 || *c > d.LastRoundCycle()) {
		return fmt.Errorf("multifault cycle %d outside 0..%d", *c, d.LastRoundCycle())
	}
	_, err := kfaultPlan(d, m)
	return err
}

// siteFault maps a planned site back onto the wire fault vocabulary, so a
// placement campaign is expressible as an ordinary campaign spec — the form
// the lease fabric ships to workers and the form whose store address every
// execution path shares.
func siteFault(site plan.Site, m *MultiFaultSpec) FaultSpec {
	return FaultSpec{
		Branch: core.Branch(site.Branch).String(),
		Sbox:   site.Sbox,
		Bit:    site.Bit,
		Model:  m.Model,
		Cycle:  m.Cycle,
	}
}

// inertSites runs (or replays from the result store) each candidate site's
// singleton campaign and marks the sites where every run was ineffective —
// the empirical half of plan.PruneIndex's oracle. The singleton campaigns
// use the sweep's own runs/seed/key, so their store addresses coincide with
// any equivalent standalone campaign and a resumed or repeated sweep replays
// them instead of re-simulating.
func inertSites(sites []plan.Site, m *MultiFaultSpec, exec placementExec) (map[int]bool, error) {
	inert := make(map[int]bool)
	for i, site := range sites {
		cs := &CampaignSpec{
			Runs:   m.RunsPerTuple,
			Seed:   m.Seed,
			Key:    m.Key,
			Faults: []FaultSpec{siteFault(site, m)},
		}
		counts, err := exec(fmt.Sprintf("s%d", i), cs)
		if err != nil {
			return nil, err
		}
		if counts.Detected == 0 && counts.Effective == 0 && counts.Corrected == 0 {
			inert[i] = true
		}
	}
	return inert, nil
}
