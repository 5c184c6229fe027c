package scone

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/attack"
	"repro/internal/cipher/gift"
	"repro/internal/cipher/present"
	"repro/internal/cipher/scone64"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/prove"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

// ---------------------------------------------------------------------------
// Cipher description layer
//
// An SPN cipher is described once as a Spec; everything downstream — the
// software reference, the protected gate-level cores, the attacks — derives
// from it.
// ---------------------------------------------------------------------------

type (
	// Spec describes an SPN cipher; see PresentSpec and GiftSpec for
	// ready-made instances.
	Spec = spn.Spec
	// KeyState holds a cipher key of up to 128 bits (word 0 = bits
	// 0..63).
	KeyState = spn.KeyState
)

// PresentSpec returns the PRESENT-80 description used throughout the
// paper's evaluation.
func PresentSpec() *Spec { return present.Spec() }

// GiftSpec returns the GIFT-64 description (the genericity demo cipher).
func GiftSpec() *Spec { return gift.Spec() }

// Scone64Spec returns the synthetic dense-linear-layer demonstration
// cipher (a GF(2) matrix diffusion layer instead of a bit permutation).
func Scone64Spec() *Spec { return scone64.Spec() }

// ---------------------------------------------------------------------------
// Countermeasure construction layer
//
// Build turns a Spec plus Options into a gate-level Design protected with
// the selected duplication scheme; a Runner drives the design through the
// bit-parallel simulator.
// ---------------------------------------------------------------------------

type (
	// Scheme selects the protection scheme.
	Scheme = core.Scheme
	// Entropy selects the λ entropy variant.
	Entropy = core.Entropy
	// Options configures Build.
	Options = core.Options
	// Design is a built gate-level core.
	Design = core.Design
	// Runner drives a design through the simulator.
	Runner = core.Runner
	// LambdaFunc supplies per-cycle λ values to a Runner.
	LambdaFunc = core.LambdaFunc
	// Branch identifies the actual or redundant computation.
	Branch = core.Branch
	// SoftwareCM is the word-level software model of Algorithm 1.
	SoftwareCM = core.SoftwareCM
)

// Protection schemes.
const (
	// SchemeUnprotected builds the bare core with no duplication.
	SchemeUnprotected = core.SchemeUnprotected
	// SchemeNaiveDup duplicates the datapath and compares outputs.
	SchemeNaiveDup = core.SchemeNaiveDup
	// SchemeACISP is the ACISP 2020 randomised duplication.
	SchemeACISP = core.SchemeACISP
	// SchemeThreeInOne is the paper's merged three-in-one countermeasure.
	SchemeThreeInOne = core.SchemeThreeInOne
	// SchemeCorrect is the fault-correction baseline: λ-diverse triple
	// redundancy with a per-bit majority vote, so a single faulted branch
	// is corrected (the right ciphertext still releases) rather than
	// merely detected.
	SchemeCorrect = core.SchemeCorrect
	// SchemeMaskedDup is three-in-one over a first-order Boolean-masked
	// datapath: identical fault detection, but the power side channel
	// (including λ) is first-order masked. Leakage jobs measure the
	// difference.
	SchemeMaskedDup = core.SchemeMaskedDup
)

// SchemeInfo is one row of the scheme registry: wire vocabulary plus
// capability flags (Duplicated / UsesRandomness / Corrects / Masked).
type SchemeInfo = core.SchemeInfo

// Schemes lists the registered protection schemes in capability order.
func Schemes() []SchemeInfo { return core.Schemes() }

// ParseScheme resolves a wire token ("three-in-one", "masked", an alias, or
// "" for the default) to its Scheme.
func ParseScheme(token string) (Scheme, error) { return core.ParseScheme(token) }

// SchemeWire returns the canonical wire token of a scheme.
func SchemeWire(s Scheme) string { return core.SchemeWire(s) }

// Entropy variants.
const (
	// EntropyPrime draws one λ bit per encryption (the λ′ variant).
	EntropyPrime = core.EntropyPrime
	// EntropyPerRound draws a fresh λ bit every round.
	EntropyPerRound = core.EntropyPerRound
	// EntropyPerSbox draws a fresh λ bit per S-box per round.
	EntropyPerSbox = core.EntropyPerSbox
)

// Branches.
const (
	// BranchActual is the computation whose output is released.
	BranchActual = core.BranchActual
	// BranchRedundant is the duplicated check computation.
	BranchRedundant = core.BranchRedundant
	// BranchRedundant2 is the second redundant computation of the
	// correcting (majority-vote) scheme.
	BranchRedundant2 = core.BranchRedundant2
)

// Synthesis engines.
const (
	// EngineANF synthesises S-boxes from their algebraic normal form.
	EngineANF = synth.EngineANF
	// EngineBDD synthesises S-boxes from reduced ordered BDDs.
	EngineBDD = synth.EngineBDD
)

// Build constructs a gate-level design for the cipher and options.
func Build(spec *Spec, opts Options) (*Design, error) { return core.Build(spec, opts) }

// MustBuild is Build that panics on error.
func MustBuild(spec *Spec, opts Options) *Design { return core.MustBuild(spec, opts) }

// NewRunner compiles a design and returns a simulator-backed runner.
func NewRunner(d *Design) (*Runner, error) { return core.NewRunner(d) }

// LambdaConst adapts fixed per-lane λ values to a LambdaFunc (the prime
// variant's contract).
func LambdaConst(vals []uint64) LambdaFunc { return core.LambdaConst(vals) }

// ---------------------------------------------------------------------------
// Simulation layer
//
// The simulator is mostly an implementation detail behind Runner and
// Campaign; the facade exposes its logical batch size and the engine
// configuration selecting how wide and how parallel that batch executes.
// ---------------------------------------------------------------------------

// BatchLanes is the campaign's logical batch size: batch randomness,
// checkpoints, lease ranges and stored results are all addressed in
// BatchLanes-run units, regardless of the engine configuration executing
// them (an EngineConfig with LaneWords W evaluates W such batches per
// simulator pass).
const BatchLanes = sim.Lanes

// EngineConfig is the campaign engine's execution configuration: simulator
// word width (LaneWords — one pass evaluates LaneWords×64 lanes) and worker
// parallelism. It is pure execution policy: every
// configuration computes bit-identical results and leaves content-addressed
// stored batches valid. Set it on Campaign.Engine (or through
// BoundCampaign.WithEngine).
type EngineConfig = fault.EngineConfig

// DefaultEngineConfig returns the explicit form of the zero-value engine
// configuration: width 1, GOMAXPROCS parallelism.
func DefaultEngineConfig() EngineConfig { return fault.DefaultEngineConfig() }

// ---------------------------------------------------------------------------
// Fault-injection layer
//
// A Campaign classifies many faulted encryptions (ineffective / detected /
// effective) under a deterministic seed; an Injector applies individual
// faults during bespoke simulations.
// ---------------------------------------------------------------------------

type (
	// Model enumerates the fault models: stuck-at-0/1 and bit-flip.
	Model = fault.Model
	// Fault is one injected fault.
	Fault = fault.Fault
	// Campaign runs a classification campaign.
	Campaign = fault.Campaign
	// CampaignResult aggregates outcomes.
	CampaignResult = fault.Result
	// Run is one classified encryption of a campaign.
	Run = fault.Run
	// Net identifies a wire in a design's netlist.
	Net = netlist.Net
	// Injector applies faults during simulation; install it with
	// Runner.S.SetInjector.
	Injector = fault.Injector
	// PersistentFault corrupts one S-box table entry for a whole campaign
	// (the persistent-fault model, PFA): set Campaign.Persistent to apply.
	PersistentFault = fault.PersistentFault
)

// Fault models.
const (
	// StuckAt0 forces the faulted net to 0.
	StuckAt0 = fault.StuckAt0
	// StuckAt1 forces the faulted net to 1.
	StuckAt1 = fault.StuckAt1
	// BitFlip inverts the faulted net.
	BitFlip = fault.BitFlip
)

// FaultAt returns a fault active during exactly one cycle.
func FaultAt(net Net, model Model, cycle int) Fault { return fault.At(net, model, cycle) }

// NewInjector builds an injector over the given faults.
func NewInjector(faults ...Fault) *Injector { return fault.NewInjector(faults...) }

// BoundCampaign is a Campaign tied to the context it was created with
// (the http.NewRequestWithContext pattern): Run honours that context's
// cancellation between batches, so a drained or timed-out campaign
// returns the counts of a contiguous batch prefix together with the
// context's error.
type BoundCampaign struct {
	// Campaign is the underlying campaign; its fields stay settable
	// (Engine, extra Faults) before the first Run.
	Campaign
	ctx context.Context
}

// NewCampaign constructs a fault-classification campaign over a built
// design, bound to ctx. The campaign derives all randomness from seed, so
// equal arguments give bit-identical results regardless of worker count
// or interruption points.
func NewCampaign(ctx context.Context, d *Design, key KeyState, runs int, seed uint64, faults ...Fault) (*BoundCampaign, error) {
	if ctx == nil {
		return nil, errors.New("scone: nil context in NewCampaign")
	}
	if d == nil {
		return nil, errors.New("scone: nil design in NewCampaign")
	}
	if runs <= 0 {
		return nil, errors.New("scone: campaign needs a positive run count")
	}
	return &BoundCampaign{
		Campaign: Campaign{Design: d, Key: key, Faults: faults, Runs: runs, Seed: seed},
		ctx:      ctx,
	}, nil
}

// WithEngine installs a validated execution configuration on the campaign
// and returns it, so construction chains:
//
//	camp, err := scone.NewCampaign(ctx, d, key, runs, seed, faults...)
//	...
//	camp, err = camp.WithEngine(scone.EngineConfig{LaneWords: 4})
//
// The configuration never changes results — only how fast the machine
// computes them.
func (c *BoundCampaign) WithEngine(cfg EngineConfig) (*BoundCampaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c.Engine = cfg
	return c, nil
}

// Run executes the campaign under the bound context. observe, when
// non-nil, sees every classified run in deterministic seed order.
func (c *BoundCampaign) Run(observe func(Run)) (CampaignResult, error) {
	return c.ExecuteBatchesFunc(c.ctx, 0, c.NumBatches(), observe, nil)
}

// ---------------------------------------------------------------------------
// Multi-fault planning layer
//
// A plan enumerates the adversary placements of a multi-fault sweep over a
// built design: every k-tuple of declared fault points (lexicographic, so
// sweeps checkpoint and resume by tuple index, with adaptive pruning of
// tuples containing known-inert sites), or every persistent S-box table
// corruption. See DESIGN.md §14.
// ---------------------------------------------------------------------------

type (
	// FaultPlan is a generated k-fault campaign plan: the candidate sites
	// and the tuple enumeration over them.
	FaultPlan = plan.Plan
	// PlanRequest configures k-fault plan generation (arity, S-box and
	// cone filters, truncation).
	PlanRequest = plan.Request
	// PlanSite is one candidate injection location with its parsed
	// (branch, S-box, bit) provenance.
	PlanSite = plan.Site
	// SboxCorruption is one persistent-fault plan entry: an S-box table
	// entry and the XOR mask applied to it.
	SboxCorruption = plan.Corruption
)

// Plan generates the k-fault plan for a built design.
func Plan(d *Design, req PlanRequest) (*FaultPlan, error) { return plan.New(d, req) }

// PlanSites lists a built design's declared fault points in the stable
// order plans, prover reports and lint findings share.
func PlanSites(d *Design) []PlanSite { return plan.Sites(d) }

// PersistentCorruptions enumerates the persistent-fault (PFA) plan for an
// S-box of the given bit width: every (entry, non-zero XOR mask) pair,
// optionally restricted to the listed entries and truncated after max.
func PersistentCorruptions(sboxBits int, entries []int, max int) ([]SboxCorruption, bool, error) {
	return plan.PersistentPlan(sboxBits, entries, max)
}

// ---------------------------------------------------------------------------
// Attack layer
//
// The attacks of Section IV-B: classic and identical-fault DFA, SIFA (and
// the IFA / biased-SFA models it generalises), and the fault template
// attack.
// ---------------------------------------------------------------------------

type (
	// AttackTarget wraps a design with the attacker's run plumbing.
	AttackTarget = attack.Target
	// AttackResult is the common attack outcome.
	AttackResult = attack.Result
	// DFAConfig parameterises the differential fault attack.
	DFAConfig = attack.DFAConfig
	// SIFAConfig parameterises the statistical ineffective fault attack.
	SIFAConfig = attack.SIFAConfig
	// SIFAResult is the SIFA outcome with its bias statistics.
	SIFAResult = attack.SIFAResult
	// IFAConfig parameterises Clavier's ineffective fault attack.
	IFAConfig = attack.IFAConfig
	// IFAResult is the IFA outcome.
	IFAResult = attack.IFAResult
	// SFAConfig parameterises the biased (statistical) fault attack.
	SFAConfig = attack.SFAConfig
	// FTAConfig parameterises the fault template attack.
	FTAConfig = attack.FTAConfig
	// FTAResult is the FTA outcome with its template statistics.
	FTAResult = attack.FTAResult
)

// NewAttackTarget compiles a design for attacking under the given key.
func NewAttackTarget(d *Design, key KeyState, seed uint64) (*AttackTarget, error) {
	return attack.NewTarget(d, key, seed)
}

// RunDFA mounts the last-round DFA (full key recovery on PRESENT-80).
func RunDFA(t *AttackTarget, cfg DFAConfig) AttackResult { return attack.RunDFA(t, cfg) }

// RunSIFA mounts the statistical ineffective fault attack.
func RunSIFA(t *AttackTarget, cfg SIFAConfig) SIFAResult { return attack.RunSIFA(t, cfg) }

// RunFTA mounts the fault template attack on a freshly built design.
func RunFTA(d *Design, key KeyState, cfg FTAConfig, seed uint64) (FTAResult, error) {
	return attack.RunFTAOnDesign(d, key, cfg, seed)
}

// RunIFA mounts Clavier's ineffective fault attack.
func RunIFA(t *AttackTarget, cfg IFAConfig) IFAResult { return attack.RunIFA(t, cfg) }

// RunSFA mounts the biased (statistical) fault attack.
func RunSFA(t *AttackTarget, cfg SFAConfig) SIFAResult { return attack.RunSFA(t, cfg) }

// ---------------------------------------------------------------------------
// Area layer
//
// Gate-equivalent pricing against the Nangate-45-like standard-cell
// library of the paper's tables.
// ---------------------------------------------------------------------------

type (
	// CellLibrary prices netlists in gate equivalents.
	CellLibrary = stdcell.Library
	// AreaReport is a GE breakdown.
	AreaReport = stdcell.Report
)

// Nangate45 returns the GE model of the open 45nm Nangate PDK used by the
// paper's tables.
func Nangate45() *CellLibrary { return stdcell.Nangate45() }

// Area prices a design against a library.
func Area(lib *CellLibrary, d *Design) AreaReport { return lib.Area(d.Mod) }

// ---------------------------------------------------------------------------
// Formal verification layer
//
// The BDD-based independence prover (internal/prove): where the linter
// proves the countermeasure's structural obligations and fault campaigns
// sample its behavioural ones, Prove decides the three SIFA-independence
// obligations exactly — by model counting over the randomness variables —
// at every tagged fault point of a design. See DESIGN.md §13.
// ---------------------------------------------------------------------------

type (
	// ProveOptions configures a prover run (node budget, fault models,
	// fault locations).
	ProveOptions = prove.Options
	// ProveResult is a full prover run over one module: per-pair verdicts
	// plus proved/dependent/unknown aggregates.
	ProveResult = prove.Result
	// ProveLocationResult is one (fault location, model) pair's outcome.
	ProveLocationResult = prove.LocationResult
	// ProveVerdict is the outcome of one independence check.
	ProveVerdict = prove.Verdict
	// ProveWitness is a concrete key-dependence certificate: an input
	// assignment under which flipping one key bit changes a count.
	ProveWitness = prove.Witness
)

// Prove verdicts.
const (
	// ProvedIndependent: proved key-independent over all inputs.
	ProvedIndependent = prove.VerdictIndependent
	// ProveUnknown: the BDD node budget was exceeded before a proof.
	ProveUnknown = prove.VerdictUnknown
	// ProveDependent: key-dependent, with a concrete witness.
	ProveDependent = prove.VerdictDependent
)

// Prove runs the independence prover over every tagged fault point of a
// built design. A nil-field ProveOptions proves all three fault models
// under the default node budget.
func Prove(d *Design, opts ProveOptions) (*ProveResult, error) { return prove.Run(d.Mod, opts) }

// ---------------------------------------------------------------------------
// Service layer
//
// The sconed daemon's embeddable job engine; see cmd/sconed and
// internal/service/client for the HTTP surface.
// ---------------------------------------------------------------------------

type (
	// ServiceConfig sizes a Service's worker pool, queue and checkpoint
	// interval; its Obs field attaches the service to a shared Registry.
	ServiceConfig = service.Config
	// Service is the embeddable fault-campaign job engine behind sconed.
	Service = service.Service
	// JobRequest describes one job submission.
	JobRequest = service.JobRequest
	// JobStatus is a job's externally visible state.
	JobStatus = service.JobStatus
	// JobKind enumerates the job types a Service executes.
	JobKind = service.Kind
	// JobState enumerates a job's lifecycle states.
	JobState = service.State
	// JobEvent is one entry of a job's progress stream.
	JobEvent = service.Event
	// DesignSpec names the design a job operates on in the wire
	// vocabulary (cipher/scheme/entropy/engine or an inline netlist).
	DesignSpec = service.DesignSpec
	// U64 is the wire form of a 64-bit word (hex-string JSON encoding);
	// job specs carry seeds and keys as U64.
	U64 = service.U64
	// MultiFaultSpec parameterises a multifault job: a planned sweep over
	// many adversary placements, each executed as its own
	// seed-deterministic campaign.
	MultiFaultSpec = service.MultiFaultSpec
	// MultiFaultResult is a finished multifault sweep: per-placement
	// tallies plus escape/correction aggregates.
	MultiFaultResult = service.MultiFaultResult
	// TupleResult is one multifault placement's outcome.
	TupleResult = service.TupleResult
	// LeakageSpec parameterises a leakage job: a fixed-vs-random TVLA
	// evaluation of the design, optionally under injected faults with
	// SIFA-style ineffective-run filtering.
	LeakageSpec = service.LeakageSpec
	// LeakageResult is a finished TVLA evaluation: kept-trace counts,
	// per-cycle Welch t-statistics and the |t| > 4.5 verdict.
	LeakageResult = service.LeakageResult
)

// ---------------------------------------------------------------------------
// Result store
//
// A Service with a StateDir keeps a content-addressed, crash-safe store of
// completed campaign batches and run provenance (internal/store). Campaign
// executions consult it and replay cached batches instead of re-simulating
// them — bit-identically, by the determinism contract — and the read paths
// below answer queries with zero simulation. See DESIGN.md §12.
// ---------------------------------------------------------------------------

type (
	// ResultsView is the zero-simulation answer to a stored-results query
	// (Service.Results, POST /v1/results): how much of the addressed
	// campaign is cached, and the complete result when all of it is.
	ResultsView = service.ResultsView
	// CampaignRunRecord is the durable provenance of one campaign
	// submission (Service.StoredRuns, GET /v1/runs): request, content
	// digests, replay/simulation split, timestamps and final counts.
	CampaignRunRecord = service.RunRecord
)

// Job kinds.
const (
	// JobCampaign runs a fault-classification campaign.
	JobCampaign = service.KindCampaign
	// JobDFA runs the differential fault attack.
	JobDFA = service.KindDFA
	// JobSIFA runs the statistical ineffective fault attack.
	JobSIFA = service.KindSIFA
	// JobFTA runs the fault template attack.
	JobFTA = service.KindFTA
	// JobArea prices the design in gate equivalents.
	JobArea = service.KindArea
	// JobLint runs the static countermeasure audit.
	JobLint = service.KindLint
	// JobProve runs the formal independence prover.
	JobProve = service.KindProve
	// JobMultiFault runs a planned multi-fault or persistent-fault sweep.
	JobMultiFault = service.KindMultiFault
	// JobLeakage runs a fixed-vs-random TVLA leakage evaluation.
	JobLeakage = service.KindLeakage
)

// Job states.
const (
	// JobQueued is a job waiting for a worker.
	JobQueued = service.StateQueued
	// JobRunning is a job being executed.
	JobRunning = service.StateRunning
	// JobDone is a successfully finished job.
	JobDone = service.StateDone
	// JobFailed is a job that ended with an error.
	JobFailed = service.StateFailed
	// JobCanceled is a job stopped by the user.
	JobCanceled = service.StateCanceled
)

// NewService starts a job engine; Close (or Drain) releases its workers.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// MultiFault executes a multifault sweep in-process: an ephemeral
// single-worker Service runs the request to completion and returns the
// result. Long-running sweeps that need durable checkpoints, resume or the
// distributed lease fabric should instead submit a JobMultiFault request to
// a Service the caller configures and keeps.
func MultiFault(ctx context.Context, design DesignSpec, spec MultiFaultSpec) (*MultiFaultResult, error) {
	res, err := runEphemeral(ctx, service.JobRequest{Kind: service.KindMultiFault, Design: design, MultiFault: &spec})
	if err != nil {
		return nil, err
	}
	return res.MultiFault, nil
}

// Leakage executes a TVLA leakage evaluation in-process: an ephemeral
// single-worker Service runs the request to completion and returns the
// result. Long evaluations that need durable checkpoints and resume
// should instead submit a JobLeakage request to a Service the caller
// configures and keeps.
func Leakage(ctx context.Context, design DesignSpec, spec LeakageSpec) (*LeakageResult, error) {
	res, err := runEphemeral(ctx, service.JobRequest{Kind: service.KindLeakage, Design: design, Leakage: &spec})
	if err != nil {
		return nil, err
	}
	return res.Leakage, nil
}

// runEphemeral runs one job request to completion on an ephemeral
// single-worker Service, canceling the job when ctx ends.
func runEphemeral(ctx context.Context, req service.JobRequest) (*service.JobResult, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scone: nil context in %s job", req.Kind)
	}
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	st, err := svc.Submit(req)
	if err != nil {
		return nil, err
	}
	ch, off, err := svc.Watch(st.ID)
	if err != nil {
		return nil, err
	}
	defer off()
	for {
		select {
		case <-ctx.Done():
			_, _ = svc.Cancel(st.ID)
			return nil, ctx.Err()
		case _, ok := <-ch:
			if ok {
				continue // progress event; only the stream close matters here
			}
			final, err := svc.Get(st.ID)
			if err != nil {
				return nil, err
			}
			if final.State != service.StateDone || final.Result == nil {
				return nil, fmt.Errorf("scone: %s job ended %s: %s", req.Kind, final.State, final.Error)
			}
			return final.Result, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Distributed execution layer
//
// Every Service runs its campaigns as batch-range leases. With
// DistConfig.Enabled it becomes a coordinator: CampaignWorker processes pull
// the leases over the /v1 HTTP API, execute them and report back, where a
// single-node Service runs them itself. Campaign batches derive all
// randomness from (seed, batch), so a distributed run — including lease
// expiry and reassignment after a worker dies — merges to a result
// bit-identical to a single-node execution. See DESIGN.md §11.
// ---------------------------------------------------------------------------

type (
	// DistConfig opens the worker protocol on a coordinator Service and
	// tunes its leases (sizing, TTL, attempt budget).
	DistConfig = service.DistConfig
	// WorkerState is a registered worker's lifecycle position.
	WorkerState = service.WorkerState
	// LeaseState is a lease's lifecycle position.
	LeaseState = service.LeaseState
	// WorkerInfo is the wire view of a registered worker (GET /v1/workers).
	WorkerInfo = service.WorkerInfo
	// LeaseInfo is the wire view of a live lease (GET /v1/leases).
	LeaseInfo = service.LeaseInfo
	// LeaseGrant is one granted batch range: the campaign request plus
	// the [FirstBatch, LastBatch) window the worker executes.
	LeaseGrant = service.LeaseGrant
	// CampaignWorker is a lease-pulling campaign executor; sconed -worker
	// is a thin shell around it.
	CampaignWorker = client.Worker
	// CampaignWorkerConfig points a CampaignWorker at its coordinator and
	// sets its simulation parallelism.
	CampaignWorkerConfig = client.WorkerConfig
)

// Worker states.
const (
	// WorkerActive is a worker with a fresh heartbeat.
	WorkerActive = service.WorkerActive
	// WorkerLost is a worker that went silent; its leases are reassigned.
	WorkerLost = service.WorkerLost
	// WorkerLeft is a worker that deregistered cleanly.
	WorkerLeft = service.WorkerLeft
)

// Lease states.
const (
	// LeasePending is a batch range waiting for a worker.
	LeasePending = service.LeasePending
	// LeaseActive is a granted range being executed under a TTL.
	LeaseActive = service.LeaseActive
)

// NewCampaignWorker creates a worker that joins the coordinator named in
// cfg and executes leases until its Run context is cancelled.
func NewCampaignWorker(cfg CampaignWorkerConfig) *CampaignWorker { return client.NewWorker(cfg) }

// ---------------------------------------------------------------------------
// Observability layer
//
// A dependency-free metrics registry (internal/obs): atomic counters and
// gauges, bucketed histograms, span timing, and Prometheus text
// exposition. Instruments are nil-safe, so an unwired component costs
// nothing — see DESIGN.md §10.
// ---------------------------------------------------------------------------

type (
	// Registry holds registered instruments and renders them; the zero
	// point of the observability layer.
	Registry = obs.Registry
	// Counter is a monotonically increasing metric.
	Counter = obs.Counter
	// Gauge is a settable point-in-time metric.
	Gauge = obs.Gauge
	// Histogram is a bucketed distribution metric.
	Histogram = obs.Histogram
	// Span times one operation into a Histogram.
	Span = obs.Span
)

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// EnableObservability registers the simulator, fault-engine, prover,
// planner and leakage-evaluator instrument families on reg, so campaign
// internals (cache hits, evals, batch latency, reorder depth), proof
// progress (locations proved, peak BDD nodes, per-location latency), plan
// sizing (tuples enumerated, tuples pruned) and TVLA trace collection
// (batches, kept/discarded traces) surface in reg's Prometheus
// exposition. Pass nil to detach them again — the hot paths then cost
// nothing. Service instances attach through ServiceConfig.Obs instead.
func EnableObservability(reg *Registry) {
	sim.EnableObservability(reg)
	fault.EnableObservability(reg)
	prove.EnableObservability(reg)
	plan.EnableObservability(reg)
	leakage.EnableObservability(reg)
}

// ---------------------------------------------------------------------------
// Randomness layer
//
// The entropy sources feeding λ: a behavioural TRNG model for realism, a
// deterministic PRNG for reproducible experiments.
// ---------------------------------------------------------------------------

type (
	// EntropySource yields random bits (TRNG model or deterministic
	// PRNG).
	EntropySource = rng.Source
	// TRNG is the behavioural ring-oscillator TRNG model.
	TRNG = rng.RingOscillatorTRNG
)

// NewTRNG creates the ring-oscillator TRNG model.
func NewTRNG(seed uint64) *TRNG { return rng.NewRingOscillatorTRNG(seed) }

// NewDeterministicSource creates the reproducible xoshiro256** source.
func NewDeterministicSource(seed uint64) *rng.Xoshiro { return rng.NewXoshiro(seed) }
