package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/spn"
)

// workload is one fixed, seed-generated op list and the stack it drives.
// Every workload is a closed loop: each caller sends its next op only once
// the previous one has returned.
type workload struct {
	name string
	// why is the reason the workload exists, as BENCHMARK.json records it.
	why string
	// callers is the number of concurrent closed-loop callers. Callers that
	// compute are at most 2: the reference machine has 2 cores and
	// GOMAXPROCS stays at its default.
	callers int
	// ops is the op-list length of a run at the default -seconds: what the
	// callers completed in that time on the reference machine at the commit
	// the lists were sized on. Other -seconds scale it.
	ops int
	// processes is the number of measuring children the op list is split
	// across, run one after another, each on a freshly opened stack; 0
	// means 1.
	processes int
	// op generates op i of the list for a seed.
	op func(seed uint64, i int) service.JobRequest
	// designs lists every design the op list uses, in the order op indices
	// cycle through them.
	designs []service.DesignSpec
	open    func(e env) (stack, error)
}

// env is what a stack is opened with.
type env struct {
	w    workload
	seed uint64
	// rec records spans; nil runs untraced.
	rec *recorder
	// reg is the registry every layer's instruments report into.
	reg *obs.Registry
}

// opResult is one executed op.
type opResult struct {
	// runs counts the encryptions the op delivered; a TVLA trace is one
	// run, and a service replay delivers its runs without simulating them.
	runs int
	// latency is the op's job: one Execute, one sweep, one evaluation, or
	// one fresh submission followed by its terminal stream event.
	latency time.Duration
	// tally is the op's canonical output: pinned by the golden table for
	// the default seed and folded into the run's tally digest.
	tally string
	// result is the campaign a service or fabric op delivered, kept so the
	// traced run can compare it with a library execution of req.
	req    service.JobRequest
	result *service.CampaignResult
	// err reports an error, a refusal or a failed correctness check.
	err error
}

// stack is an opened set of layers that executes ops.
type stack interface {
	run(ctx context.Context, i int) opResult
	// check verifies run-level invariants once the ops are done.
	check() error
	close() error
}

var workloads = []workload{
	{
		name:    "campaign",
		why:     "Figure-4 single-fault campaigns through fault.Campaign.Execute: time goes to sim eval, spn classification and fault draws and merge; no store or HTTP",
		callers: 1,
		ops:     340,
		op:      func(seed uint64, i int) service.JobRequest { return campaignOp(seed, i, campaignRuns) },
		designs: []service.DesignSpec{design("three-in-one", "prime"), design("three-in-one", "per-round"), design("three-in-one", "per-sbox")},
		open:    openCampaign,
	},
	{
		name:    "sweep",
		why:     "k=2 plan sweeps: the campaign engine driven through 28 tiny campaigns per op, so per-Execute fixed cost is 10-20% of the time",
		callers: 1,
		ops:     340,
		op:      sweepOp,
		designs: []service.DesignSpec{design("three-in-one", "prime")},
		open:    openSweep,
	},
	{
		name:    "tvla",
		why:     "TVLA evaluations of the unmasked core and its masked twin: single-threaded runner with a power probe and a t-test; no faults, so spn and the fault engine are bypassed",
		callers: 1,
		ops:     170,
		op:      tvlaOp,
		designs: []service.DesignSpec{design("three-in-one", "prime"), design("masked", "prime")},
		open:    openTVLA,
	},
	{
		name:    "service",
		why:     "2 HTTP clients submit fresh campaigns to an in-process sconed and resubmit each: queue, checkpoint fsync and store writes beside all-hit store replays",
		callers: 2,
		ops:     440,
		op:      func(seed uint64, i int) service.JobRequest { return campaignOp(seed, i, serviceRuns) },
		designs: []service.DesignSpec{design("three-in-one", "prime"), design("three-in-one", "per-round"), design("three-in-one", "per-sbox")},
		open:    func(e env) (stack, error) { return openService(e, false) },
	},
	// The fabric's callers only wait on HTTP; there are 4 so that another
	// job's leases are always queued when a worker asks for one, and the
	// workers' 500 ms idle poll stays off every job's path.
	{
		name:      "fabric",
		why:       "4 HTTP clients keep a coordinator's 2 in-process workers leasing fresh campaigns without idle polls: lease grant, per-lease build, execution and merge",
		callers:   4,
		ops:       480,
		processes: 4,
		op:        func(seed uint64, i int) service.JobRequest { return campaignOp(seed, i, fabricRuns) },
		designs:   []service.DesignSpec{design("three-in-one", "prime"), design("three-in-one", "per-round"), design("three-in-one", "per-sbox")},
		open:      func(e env) (stack, error) { return openService(e, true) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildDesigns synthesises and compiles every design of the op list — the
// set-up the library workloads pay once.
func buildDesigns(specs []service.DesignSpec) (map[service.DesignSpec]*core.Design, error) {
	m := make(map[service.DesignSpec]*core.Design, len(specs))
	for _, ds := range specs {
		d, err := service.BuildDesign(ds)
		if err != nil {
			return nil, err
		}
		if _, err := sim.CompileCached(d.Mod); err != nil {
			return nil, err
		}
		m[ds] = d
	}
	return m, nil
}

// library is the shared state of the three in-process workloads.
type library struct {
	e       env
	designs map[service.DesignSpec]*core.Design
}

func openLibrary(e env) (*library, error) {
	designs, err := buildDesigns(e.w.designs)
	if err != nil {
		return nil, err
	}
	return &library{e: e, designs: designs}, nil
}

func (l *library) check() error { return nil }
func (l *library) close() error { return nil }

// execute runs a whole campaign through ExecuteBatchesFunc — the entry point
// Execute delegates to — under a span that records every completed batch.
func execute(ctx context.Context, rec *recorder, camp *fault.Campaign) (fault.Result, error) {
	sp := rec.begin(ctx, "fault.Campaign.ExecuteBatchesFunc")
	var onBatch func(int, fault.Result)
	if rec != nil {
		onBatch = func(b int, _ fault.Result) { sp.event("fault.batch", map[string]any{"batch": b}) }
	}
	res, err := camp.ExecuteBatchesFunc(sp.context(), 0, camp.NumBatches(), nil, onBatch)
	sp.end(map[string]any{"runs": res.Total})
	return res, err
}

type campaignStack struct{ *library }

func openCampaign(e env) (stack, error) {
	l, err := openLibrary(e)
	if err != nil {
		return nil, err
	}
	return campaignStack{l}, nil
}

func (c campaignStack) run(ctx context.Context, i int) opResult {
	req := c.e.w.op(c.e.seed, i)
	camp, err := engineCampaign(c.designs[req.Design], req.Campaign)
	if err != nil {
		return opResult{err: err}
	}
	start := time.Now()
	res, err := execute(ctx, c.e.rec, camp)
	lat := time.Since(start)
	if err != nil {
		return opResult{err: err}
	}
	cr := service.NewCampaignResult(res)
	return opResult{runs: res.Total, latency: lat, tally: campaignTally(cr), err: checkCampaign(cr, camp.Runs)}
}

// campaignTally is a campaign's canonical output.
func campaignTally(c service.CampaignResult) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", c.Total, c.Ineffective, c.Detected, c.Effective, c.Corrected)
}

// checkCampaign holds every single-fault three-in-one campaign to the
// paper's claim: no run releases a wrong ciphertext undetected.
func checkCampaign(c service.CampaignResult, runs int) error {
	switch {
	case c.Total != runs:
		return fmt.Errorf("campaign delivered %d of %d runs", c.Total, runs)
	case c.Ineffective+c.Detected+c.Effective+c.Corrected != c.Total:
		return fmt.Errorf("campaign outcomes %+v do not sum to the total", c)
	case c.Effective != 0:
		return fmt.Errorf("single fault escaped detection in %d runs", c.Effective)
	}
	return nil
}

type sweepStack struct{ *library }

func openSweep(e env) (stack, error) {
	l, err := openLibrary(e)
	if err != nil {
		return nil, err
	}
	return sweepStack{l}, nil
}

// sweepPlacements is C(8, 2): two branches × four bits of one S-box column.
const sweepPlacements = 28

func (s sweepStack) run(ctx context.Context, i int) opResult {
	req := s.e.w.op(s.e.seed, i)
	ms := req.MultiFault
	d := s.designs[req.Design]
	model, err := parseModel(ms.Model)
	if err != nil {
		return opResult{err: err}
	}
	start := time.Now()
	sp := s.e.rec.begin(ctx, "plan.New")
	p, err := plan.New(d, plan.Request{K: ms.K, Sboxes: ms.Sboxes})
	if err != nil {
		sp.end(nil)
		return opResult{err: err}
	}
	sp.end(map[string]any{"placements": len(p.Tuples)})
	var total service.CampaignResult
	escapes := 0
	// The placements' own tallies are folded into a digest: equal sums can
	// hide differently distributed outcomes.
	h := sha256.New()
	for _, tuple := range p.Tuples {
		camp := &fault.Campaign{
			Design: d,
			Key:    spn.KeyState{uint64(ms.Key[0]), uint64(ms.Key[1])},
			Faults: p.Faults(tuple, model, *ms.Cycle),
			Runs:   ms.RunsPerTuple,
			Seed:   uint64(ms.Seed),
		}
		res, err := execute(ctx, s.e.rec, camp)
		if err != nil {
			return opResult{err: err}
		}
		total.Add(res)
		if res.Effective() > 0 {
			escapes++
		}
		fmt.Fprintln(h, campaignTally(service.NewCampaignResult(res)))
	}
	lat := time.Since(start)
	r := opResult{
		runs:    total.Total,
		latency: lat,
		tally:   fmt.Sprintf("%d:%s:esc%d:%x", len(p.Tuples), campaignTally(total), escapes, h.Sum(nil)[:6]),
	}
	if len(p.Tuples) != sweepPlacements || total.Total != sweepPlacements*ms.RunsPerTuple {
		r.err = fmt.Errorf("sweep ran %d placements, %d runs", len(p.Tuples), total.Total)
	}
	return r
}

type tvlaStack struct{ *library }

func openTVLA(e env) (stack, error) {
	l, err := openLibrary(e)
	if err != nil {
		return nil, err
	}
	return tvlaStack{l}, nil
}

// tvlaThreshold separates the verdicts with a wide margin: at 256 pairs the
// unmasked core reaches max|t| ≈ 40 and a broken mask would too, while the
// masked core stays near the noise floor of ~3.
const tvlaThreshold = 10

// run evaluates the op on the unmasked core and then on its masked twin with
// the same inputs; the pair is one job.
func (t tvlaStack) run(ctx context.Context, i int) opResult {
	req := t.e.w.op(t.e.seed, i)
	ls := req.Leakage
	model, ok := power.ParseModel(ls.Model)
	if !ok {
		return opResult{err: fmt.Errorf("unknown power model %q", ls.Model)}
	}
	var r opResult
	var tallies []string
	start := time.Now()
	for _, ds := range t.e.w.designs {
		ev, err := leakage.New(leakage.Config{
			Design:  t.designs[ds],
			Key:     spn.KeyState{uint64(ls.Key[0]), uint64(ls.Key[1])},
			Model:   model,
			Pairs:   ls.Pairs,
			Seed:    uint64(ls.Seed),
			FixedPT: uint64(ls.FixedPT),
		})
		if err != nil {
			return opResult{err: err}
		}
		for !ev.Done() {
			sp := t.e.rec.begin(ctx, "leakage.Evaluator.Step")
			ev.Step()
			sp.end(map[string]any{"scheme": ds.Scheme})
		}
		res := ev.Result()
		r.runs += res.Fixed + res.Random + res.Discarded
		tallies = append(tallies, fmt.Sprintf("%s:%d/%d:%.6g", ds.Scheme, res.Fixed, res.Random, res.MaxAbsT))
		if err := checkTVLA(res, ls.Pairs, t.designs[ds].Opts.Scheme.Masked()); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.latency = time.Since(start)
	r.tally = strings.Join(tallies, " ")
	return r
}

// checkTVLA requires the unmasked core to leak and the masked core not to.
func checkTVLA(res leakage.Result, pairs int, masked bool) error {
	switch {
	case res.Fixed != pairs || res.Random != pairs:
		return fmt.Errorf("evaluation kept %d/%d traces of %d pairs", res.Fixed, res.Random, pairs)
	case masked && res.MaxAbsT >= tvlaThreshold:
		return fmt.Errorf("masked core leaks: max|t| = %.2f", res.MaxAbsT)
	case !masked && res.MaxAbsT <= tvlaThreshold:
		return fmt.Errorf("unmasked core shows no leakage: max|t| = %.2f", res.MaxAbsT)
	}
	return nil
}

// serviceStack runs an in-process sconed at its defaults behind a loopback
// HTTP server; with fabric set it is a coordinator and two in-process
// workers execute its leases.
type serviceStack struct {
	e      env
	fabric bool
	dir    string
	svc    *service.Service
	srv    *httptest.Server
	c      *client.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

func openService(e env, fabric bool) (stack, error) {
	// The service builds its designs per job; building them here as well
	// keeps set-up comparable with the library workloads.
	if _, err := buildDesigns(e.w.designs); err != nil {
		return nil, err
	}
	s, err := startService(e, fabric)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// startService opens the service with its state on disk, serves it on
// loopback and, for the fabric, joins two workers.
func startService(e env, fabric bool) (_ *serviceStack, err error) {
	dir, err := os.MkdirTemp("", "sconeperf-"+e.w.name+"-")
	if err != nil {
		return nil, err
	}
	s := &serviceStack{e: e, fabric: fabric, dir: dir, stopWorkers: func() {}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cfg := service.Config{StateDir: dir, Obs: e.reg}
	cfg.Dist.Enabled = fabric
	if s.svc, err = service.New(cfg); err != nil {
		return nil, err
	}
	s.srv = httptest.NewServer(e.rec.middleware(s.svc.Handler()))
	s.c = client.New(s.srv.URL)
	s.c.HTTPClient = e.rec.httpClient()
	if !fabric {
		return s, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for w := 0; w < 2; w++ {
		wk := client.NewWorker(client.WorkerConfig{
			Coordinator: s.srv.URL,
			Name:        fmt.Sprintf("worker-%d", w),
			SimWorkers:  1,
		})
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			_ = wk.Run(ctx) // returns nil on shutdown; a failed join shows as a set-up timeout
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.svc.Metrics.WorkersJoined.Value() < 2 {
		if time.Now().After(deadline) {
			return nil, errors.New("fabric workers did not join within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// job is one submission followed by its terminal stream event.
type job struct {
	status  service.JobStatus
	result  service.CampaignResult
	latency time.Duration
}

func (s *serviceStack) submit(ctx context.Context, req service.JobRequest) (job, error) {
	start := time.Now()
	sp := s.e.rec.begin(ctx, "client.Submit")
	st, err := s.c.Submit(sp.context(), req)
	sp.end(map[string]any{"job": st.ID})
	if err != nil {
		return job{}, err
	}
	sp = s.e.rec.begin(ctx, "client.Stream")
	final, err := s.c.Stream(sp.context(), st.ID, nil)
	sp.end(map[string]any{"job": st.ID})
	lat := time.Since(start)
	if err != nil {
		return job{}, err
	}
	if final.State != service.StateDone || final.Result == nil || final.Result.Campaign == nil {
		return job{}, fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	return job{status: final, result: *final.Result.Campaign, latency: lat}, nil
}

func (s *serviceStack) run(ctx context.Context, i int) opResult {
	req := s.e.w.op(s.e.seed, i)
	fresh, err := s.submit(ctx, req)
	if err != nil {
		return opResult{err: err}
	}
	r := opResult{
		runs:    fresh.result.Total,
		latency: fresh.latency,
		tally:   campaignTally(fresh.result),
		req:     req,
		result:  &fresh.result,
		err:     checkCampaign(fresh.result, req.Campaign.Runs),
	}
	if s.fabric || r.err != nil {
		return r
	}
	replay, err := s.submit(ctx, req)
	if err != nil {
		r.err = fmt.Errorf("replay: %w", err)
		return r
	}
	r.runs += replay.result.Total
	a, _ := json.Marshal(fresh.result)
	b, _ := json.Marshal(replay.result)
	if !bytes.Equal(a, b) {
		r.err = fmt.Errorf("replay %s differs from its fresh twin %s", b, a)
	}
	return r
}

// check holds the fabric to a clean lease table: on a healthy loopback
// fleet no lease may time out.
func (s *serviceStack) check() error {
	if n := s.svc.Metrics.LeasesExpired.Value(); n != 0 {
		return fmt.Errorf("%d leases expired", n)
	}
	return nil
}

// close stops the workers (their leave requests still need the server),
// then the server, then the service, and removes the state directory.
func (s *serviceStack) close() error {
	s.stopWorkers()
	s.workers.Wait()
	if s.srv != nil {
		s.srv.Close()
	}
	var err error
	if s.svc != nil {
		err = s.svc.Close()
	}
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}
