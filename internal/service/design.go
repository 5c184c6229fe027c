package service

import (
	"fmt"
	"strings"

	"repro/internal/cipher/gift"
	"repro/internal/cipher/present"
	"repro/internal/cipher/scone64"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/spn"
	"repro/internal/synth"
)

// ParseDesign resolves a synthesised-core spec into build inputs. It is the
// single place the wire vocabulary (sconectl's design flag names) maps onto
// core.Options, so every job kind validates and builds identically.
func ParseDesign(ds DesignSpec) (*spn.Spec, core.Options, error) {
	var spec *spn.Spec
	switch ds.Cipher {
	case "", "present80":
		spec = present.Spec()
	case "gift64":
		spec = gift.Spec()
	case "scone64":
		spec = scone64.Spec()
	default:
		return nil, core.Options{}, fmt.Errorf("unknown cipher %q", ds.Cipher)
	}

	var opts core.Options
	scheme, err := core.ParseScheme(ds.Scheme)
	if err != nil {
		return nil, core.Options{}, err
	}
	opts.Scheme = scheme
	switch ds.Entropy {
	case "", "prime":
		opts.Entropy = core.EntropyPrime
	case "per-round":
		opts.Entropy = core.EntropyPerRound
	case "per-sbox":
		opts.Entropy = core.EntropyPerSbox
	default:
		return nil, core.Options{}, fmt.Errorf("unknown entropy variant %q", ds.Entropy)
	}
	switch ds.Engine {
	case "", "anf":
		opts.Engine = synth.EngineANF
	case "bdd":
		opts.Engine = synth.EngineBDD
	default:
		return nil, core.Options{}, fmt.Errorf("unknown engine %q", ds.Engine)
	}
	opts.SeparateSbox = ds.SeparateSbox
	opts.Optimize = ds.Optimize
	return spec, opts, nil
}

// BuildDesign synthesises a private copy of the core a job addresses. Jobs
// that only read their design take it from the service's DesignCache
// instead; the attack kinds build here because the FTA attack rewires its
// netlist in place.
func BuildDesign(ds DesignSpec) (*core.Design, error) {
	spec, opts, err := synthesisInputs(ds)
	if err != nil {
		return nil, err
	}
	return buildCore(spec, opts)
}

// synthesisInputs is ParseDesign for the kinds that need a synthesised
// core rather than an inline netlist.
func synthesisInputs(ds DesignSpec) (*spn.Spec, core.Options, error) {
	if ds.Netlist != "" {
		return nil, core.Options{}, fmt.Errorf("this job kind needs a synthesised design, not an inline netlist")
	}
	return ParseDesign(ds)
}

func buildCore(spec *spn.Spec, opts core.Options) (*core.Design, error) {
	d, err := core.Build(spec, opts)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return d, nil
}

// ResolveModule returns the netlist a design-only job (area, lint) operates
// on: the inline text netlist when one was uploaded, else a freshly
// synthesised core.
func ResolveModule(ds DesignSpec) (*netlist.Module, error) {
	if ds.Netlist != "" {
		m, err := netlist.ReadTextLax(strings.NewReader(ds.Netlist))
		if err != nil {
			return nil, fmt.Errorf("netlist: %w", err)
		}
		return m, nil
	}
	d, err := BuildDesign(ds)
	if err != nil {
		return nil, err
	}
	return d.Mod, nil
}

func parseBranch(s string) (core.Branch, error) {
	switch s {
	case "", "actual":
		return core.BranchActual, nil
	case "redundant":
		return core.BranchRedundant, nil
	case "redundant2":
		return core.BranchRedundant2, nil
	default:
		return 0, fmt.Errorf("unknown branch %q", s)
	}
}

func parseModel(s string) (fault.Model, error) {
	switch s {
	case "", "stuck-at-0":
		return fault.StuckAt0, nil
	case "stuck-at-1":
		return fault.StuckAt1, nil
	case "bit-flip":
		return fault.BitFlip, nil
	default:
		return 0, fmt.Errorf("unknown fault model %q", s)
	}
}

// resolveFaults maps wire fault specs onto concrete nets of the built
// design. Branch addressing the design lacks, or out-of-range S-box
// coordinates or cycles, fail here with a descriptive error — at
// submission, since Submit resolves every request against its design.
func resolveFaults(d *core.Design, specs []FaultSpec) ([]fault.Fault, error) {
	faults := make([]fault.Fault, 0, len(specs))
	for i, fs := range specs {
		branch, err := parseBranch(fs.Branch)
		if err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
		model, err := parseModel(fs.Model)
		if err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
		if int(branch) >= d.NumBranches() {
			return nil, fmt.Errorf("fault %d: design %s has no branch %q", i, d.Mod.Name, branch)
		}
		if fs.Sbox >= d.Spec.NumSboxes() || fs.Bit >= d.Spec.SboxBits {
			return nil, fmt.Errorf("fault %d: S-box %d bit %d out of range for %s", i, fs.Sbox, fs.Bit, d.Spec.Name)
		}
		cycle := d.LastRoundCycle()
		if fs.Cycle != nil {
			cycle = *fs.Cycle
			if cycle < 0 || cycle > d.LastRoundCycle() {
				return nil, fmt.Errorf("fault %d: cycle %d outside 0..%d", i, cycle, d.LastRoundCycle())
			}
		}
		net := d.SboxInputNet(branch, fs.Sbox, fs.Bit)
		faults = append(faults, fault.At(net, model, cycle))
	}
	return faults, nil
}

// buildLeakage assembles the evaluator for a validated leakage request
// against its built design.
func buildLeakage(d *core.Design, ls *LeakageSpec) (*leakage.Evaluator, error) {
	if ls == nil {
		return nil, fmt.Errorf("leakage job needs a leakage spec")
	}
	model, ok := power.ParseModel(ls.Model)
	if !ok {
		return nil, fmt.Errorf("unknown power model %q", ls.Model)
	}
	faults, err := resolveFaults(d, ls.Faults)
	if err != nil {
		return nil, err
	}
	return leakage.New(leakage.Config{
		Design:  d,
		Key:     spn.KeyState{uint64(ls.Key[0]), uint64(ls.Key[1])},
		Model:   model,
		Pairs:   ls.Pairs,
		Seed:    uint64(ls.Seed),
		FixedPT: uint64(ls.FixedPT),
		Faults:  faults,
	})
}

// EngineDefaults carries a host's execution policy: the service fills it
// from Config, the distributed worker from its WorkerConfig. It never
// influences results or content addresses, only how fast the machine
// computes them.
type EngineDefaults struct {
	// Workers is the simulation parallelism (0 = GOMAXPROCS).
	Workers int
}

// BuildCampaign synthesises a fresh design and assembles the engine
// campaign for a validated campaign request. DesignCache.Campaign is the
// same assembly over a cached design, which is how the service and its
// workers build: a lease grant's (Design, Campaign) pair reconstructs the
// exact campaign the submitting client described — the determinism
// contract's precondition.
func BuildCampaign(ds DesignSpec, cs *CampaignSpec, def EngineDefaults) (*fault.Campaign, error) {
	if cs == nil {
		return nil, fmt.Errorf("campaign job needs a campaign spec")
	}
	d, err := BuildDesign(ds)
	if err != nil {
		return nil, err
	}
	return buildCampaign(d, cs, def)
}

// buildCampaign assembles the engine campaign for a validated request.
func buildCampaign(d *core.Design, cs *CampaignSpec, def EngineDefaults) (*fault.Campaign, error) {
	faults, err := resolveFaults(d, cs.Faults)
	if err != nil {
		return nil, err
	}
	camp := &fault.Campaign{
		Design: d,
		Key:    spn.KeyState{uint64(cs.Key[0]), uint64(cs.Key[1])},
		Faults: faults,
		Runs:   cs.Runs,
		Seed:   uint64(cs.Seed),
		Engine: fault.EngineConfig{Parallelism: def.Workers},
	}
	if cs.Persistent != nil {
		p := fault.PersistentFault{Entry: cs.Persistent.Entry, Mask: uint64(cs.Persistent.Mask)}
		if err := p.Validate(d); err != nil {
			return nil, err
		}
		camp.Persistent = &p
	}
	return camp, nil
}
