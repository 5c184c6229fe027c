package main

import (
	"fmt"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/spn"
)

// defaultSeed is the workload seed the golden tallies are pinned at.
const defaultSeed = 0x5C09E2021

// opGamma derives op i's generator seed as seed ^ (i+1)*opGamma — the
// golden-gamma derivation the campaign engine uses per batch — so every op
// is a pure function of (seed, op index) and any prefix of an op list can be
// regenerated without the ops before it.
const opGamma = 0x9E3779B97F4A7C15

// Op sizes. They are fixed so that ops stay comparable across commits; the
// run length, not the op size, scales with -seconds.
const (
	campaignRuns = 16384 // one Figure-4 campaign
	sweepRuns    = 512   // runs per k=2 placement (8 batches)
	tvlaPairs    = 256   // fixed/random pairs per evaluation
	serviceRuns  = 8192  // one sconed campaign job
	fabricRuns   = 2048  // one distributed campaign job: 4 leases
)

var (
	entropies = []string{"prime", "per-round", "per-sbox"}
	models    = []string{"stuck-at-0", "stuck-at-1", "bit-flip"}
	branches  = []string{"actual", "redundant"}
	// presentRounds bounds the drawn fault cycle: rounds are computed in
	// cycles 1..Rounds, cycle 0 loads the state.
	presentRounds = present.Spec().Rounds
)

func opRand(seed uint64, i int) *rng.Xoshiro {
	return rng.NewXoshiro(seed ^ (uint64(i)+1)*opGamma)
}

func design(scheme, entropy string) service.DesignSpec {
	return service.DesignSpec{Cipher: "present80", Scheme: scheme, Entropy: entropy}
}

func drawKey(g *rng.Xoshiro) [2]service.U64 {
	return [2]service.U64{service.U64(g.Uint64()), service.U64(g.Bits(16))}
}

func drawCycle(g *rng.Xoshiro) *int {
	c := 1 + g.Intn(presentRounds)
	return &c
}

// campaignOp is a single-fault three-in-one campaign: entropy cycles with
// the op index, everything else is drawn.
func campaignOp(seed uint64, i, runs int) service.JobRequest {
	g := opRand(seed, i)
	cs := &service.CampaignSpec{Runs: runs, Seed: service.U64(g.Uint64()), Key: drawKey(g)}
	cs.Faults = []service.FaultSpec{{
		Branch: branches[g.Intn(len(branches))],
		Sbox:   g.Intn(16),
		Bit:    g.Intn(4),
		Model:  models[g.Intn(len(models))],
		Cycle:  drawCycle(g),
	}}
	return service.JobRequest{
		Kind:     service.KindCampaign,
		Design:   design("three-in-one", entropies[i%len(entropies)]),
		Campaign: cs,
	}
}

// sweepOp is a k=2 sweep over one S-box column of the prime three-in-one
// core: 8 sites, 28 placements.
func sweepOp(seed uint64, i int) service.JobRequest {
	g := opRand(seed, i)
	ms := &service.MultiFaultSpec{
		Mode:         "kfault",
		K:            2,
		RunsPerTuple: sweepRuns,
		Seed:         service.U64(g.Uint64()),
		Key:          drawKey(g),
		Sboxes:       []int{g.Intn(16)},
		Model:        models[g.Intn(len(models))],
		Cycle:        drawCycle(g),
	}
	return service.JobRequest{Kind: service.KindMultiFault, Design: design("three-in-one", "prime"), MultiFault: ms}
}

// tvlaOp is a fixed-vs-random TVLA evaluation of the unmasked core under
// the Hamming-distance model; the tvla workload runs it and its masked twin
// as one op.
func tvlaOp(seed uint64, i int) service.JobRequest {
	g := opRand(seed, i)
	ls := &service.LeakageSpec{
		Pairs:   tvlaPairs,
		Seed:    service.U64(g.Uint64()),
		Key:     drawKey(g),
		Model:   "hd",
		FixedPT: service.U64(g.Uint64()),
	}
	return service.JobRequest{Kind: service.KindLeakage, Design: design("three-in-one", "prime"), Leakage: ls}
}

// The engine values of the wire names the op lists draw from. The service
// resolves the same names in its own table;
// TestEngineCampaignMatchesService holds the two resolutions equal.
var (
	branchValues = map[string]core.Branch{"actual": core.BranchActual, "redundant": core.BranchRedundant}
	modelValues  = map[string]fault.Model{"stuck-at-0": fault.StuckAt0, "stuck-at-1": fault.StuckAt1, "bit-flip": fault.BitFlip}
)

// engineCampaign resolves a campaign request against an already built
// design, at the zero EngineConfig. service.BuildCampaign resolves it the
// same way but synthesises a fresh design each call, which would put a
// design build inside every timed op.
func engineCampaign(d *core.Design, cs *service.CampaignSpec) (*fault.Campaign, error) {
	faults := make([]fault.Fault, 0, len(cs.Faults))
	for _, fs := range cs.Faults {
		b, ok := branchValues[fs.Branch]
		if !ok {
			return nil, fmt.Errorf("unknown branch %q", fs.Branch)
		}
		m, err := parseModel(fs.Model)
		if err != nil {
			return nil, err
		}
		cycle := d.LastRoundCycle()
		if fs.Cycle != nil {
			cycle = *fs.Cycle
		}
		faults = append(faults, fault.At(d.SboxInputNet(b, fs.Sbox, fs.Bit), m, cycle))
	}
	return &fault.Campaign{
		Design: d,
		Key:    spn.KeyState{uint64(cs.Key[0]), uint64(cs.Key[1])},
		Faults: faults,
		Runs:   cs.Runs,
		Seed:   uint64(cs.Seed),
	}, nil
}

func parseModel(s string) (fault.Model, error) {
	m, ok := modelValues[s]
	if !ok {
		return 0, fmt.Errorf("unknown fault model %q", s)
	}
	return m, nil
}
