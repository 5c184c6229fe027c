package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/stats"
	"repro/internal/store"
)

// checks tallies the correctness checks the component replays make.
type checks struct {
	n      int
	failed []error
}

func (c *checks) check(err error) {
	c.n++
	if err != nil {
		c.failed = append(c.failed, err)
	}
}

// sizes scales the component replays: repetitions behind each median, runs
// per replayed campaign, jobs through the service and fabric, and TVLA
// evaluator steps.
type sizes struct {
	reps, runs, jobs, steps int
}

func replaySizes(short bool) sizes {
	if short {
		return sizes{reps: 2, runs: 1024, jobs: 2, steps: 4}
	}
	return sizes{reps: 5, runs: 8192, jobs: 6, steps: 64}
}

// layerCase is one design of the workload with a single-fault campaign on
// it; case i takes its inputs from op i.
type layerCase struct {
	d    *core.Design
	camp *fault.Campaign
	req  service.JobRequest
}

// probeRequest turns an op into a single-fault campaign request on the op's
// design: a campaign op as it is, a sweep op as its column's first site
// under the sweep's model and cycle, and a TVLA op, which carries no fault,
// as the Figure-4 fault (stuck-at-0 on S-box 13 bit 2 in the last round).
func probeRequest(op service.JobRequest, runs int) service.JobRequest {
	var cs service.CampaignSpec
	switch {
	case op.Campaign != nil:
		cs = *op.Campaign
	case op.MultiFault != nil:
		m := op.MultiFault
		cs = service.CampaignSpec{Seed: m.Seed, Key: m.Key, Faults: []service.FaultSpec{
			{Branch: "actual", Sbox: m.Sboxes[0], Bit: 0, Model: m.Model, Cycle: m.Cycle}}}
	case op.Leakage != nil:
		l := op.Leakage
		cs = service.CampaignSpec{Seed: l.Seed, Key: l.Key, Faults: []service.FaultSpec{
			{Branch: "actual", Sbox: 13, Bit: 2, Model: "stuck-at-0"}}}
	}
	cs.Runs = runs
	return service.JobRequest{Kind: service.KindCampaign, Design: op.Design, Campaign: &cs}
}

func layerCases(w workload, seed uint64, runs int) ([]layerCase, error) {
	cases := make([]layerCase, 0, len(w.designs))
	for i, ds := range w.designs {
		req := probeRequest(w.op(seed, i), runs)
		req.Design = ds
		d, err := service.BuildDesign(ds)
		if err != nil {
			return nil, err
		}
		camp, err := engineCampaign(d, req.Campaign)
		if err != nil {
			return nil, err
		}
		cases = append(cases, layerCase{d: d, camp: camp, req: req})
	}
	return cases, nil
}

// timeIt returns the median over reps of the mean time of n calls of f, in
// nanoseconds with their fraction.
func timeIt(reps, n int, f func()) float64 {
	xs := make([]float64, reps)
	for r := range xs {
		start := time.Now()
		for k := 0; k < n; k++ {
			f()
		}
		xs[r] = float64(time.Since(start)) / float64(n)
	}
	return median(xs)
}

// measureLayers replays each layer's public calls on the workload's designs
// and inputs. Per-design values are averaged over the workload's designs;
// the leakage replays use the tvla workload's two designs for every
// workload, and the service and fabric replays submit the workload's own
// campaigns.
func measureLayers(e env, short bool) (map[string]float64, checks) {
	sz := replaySizes(short)
	m := map[string]float64{}
	var chk checks
	cases, err := layerCases(e.w, e.seed, sz.runs)
	if err != nil {
		chk.check(err)
		return m, chk
	}
	for _, c := range cases {
		for name, v := range designLayers(c, sz, &chk) {
			m[name] += v / float64(len(cases))
		}
	}
	leakageLayers(e.seed, sz, m, &chk)
	serviceLayers(e, cases, sz, m, &chk)
	fabricLayers(e, cases, sz, m, &chk)
	return m, chk
}

// batchBench drives one 64-lane batch of a design with fixed draws.
type batchBench struct {
	r            *core.Runner
	key          spn.KeyState
	pts, garbage []uint64
	lf           core.LambdaFunc
}

func newBatchBench(d *core.Design, key spn.KeyState, faults []fault.Fault, seed uint64) (*batchBench, error) {
	r, err := core.NewRunner(d)
	if err != nil {
		return nil, err
	}
	if len(faults) > 0 {
		r.S.SetInjector(fault.NewInjector(faults...))
	}
	g := rng.NewXoshiro(seed)
	draw := func(bits int) []uint64 {
		v := make([]uint64, sim.Lanes)
		for i := range v {
			v[i] = g.Bits(bits)
		}
		return v
	}
	b := &batchBench{r: r, key: key, pts: draw(64), garbage: draw(64)}
	if d.LambdaWidth > 0 {
		lam := make([][]uint64, d.CyclesPerRun())
		for c := range lam {
			lam[c] = draw(d.LambdaWidth)
		}
		if d.Opts.Entropy == core.EntropyPrime {
			b.lf = core.LambdaConst(lam[0])
		} else {
			b.lf = func(c int) []uint64 { return lam[c] }
		}
	}
	if d.Opts.Scheme.Masked() {
		ms := &core.MaskSet{StateEven: draw(d.Spec.BlockBits), StateOdd: draw(d.Spec.BlockBits), Lambda: draw(1)}
		if d.MaskPoolWidth > 0 {
			ms.RandEven, ms.RandOdd = draw(d.MaskPoolWidth), draw(d.MaskPoolWidth)
		}
		r.Masks = ms
	}
	return b, nil
}

func (b *batchBench) encrypt() { b.r.EncryptBatchReuse(b.pts, b.key, b.garbage, b.lf) }

// designLayers measures the sim, core, spn, fault and plan layers on one
// design.
func designLayers(c layerCase, sz sizes, chk *checks) map[string]float64 {
	m := map[string]float64{}
	d, camp := c.d, c.camp

	var compiles []float64
	for r := 0; r < sz.reps; r++ {
		fresh, err := service.BuildDesign(c.req.Design)
		if err != nil {
			chk.check(err)
			return m
		}
		start := time.Now()
		_, err = sim.CompileCached(fresh.Mod)
		compiles = append(compiles, ms(time.Since(start)))
		chk.check(err)
	}
	m["sim.compile_ms"] = median(compiles)
	compiled, err := sim.CompileCached(d.Mod)
	if err != nil {
		chk.check(err)
		return m
	}
	m["sim.instructions"] = float64(compiled.NumInstructions())

	plainB, err := newBatchBench(d, camp.Key, nil, camp.Seed)
	chk.check(err)
	faultB, err := newBatchBench(d, camp.Key, camp.Faults, camp.Seed)
	chk.check(err)
	probeB, err := newBatchBench(d, camp.Key, nil, camp.Seed)
	chk.check(err)
	if plainB == nil || faultB == nil || probeB == nil {
		return m
	}
	probe := power.Attach(probeB.r, power.HammingDistance)
	plainUS := timeIt(sz.reps, 100, plainB.encrypt) / 1e3
	m["core.batch_us"] = timeIt(sz.reps, 100, faultB.encrypt) / 1e3
	m["core.probe_batch_us"] = timeIt(sz.reps, 10, func() { probe.BeginBatch(); probeB.encrypt() }) / 1e3
	m["power.probe_us"] = m["core.probe_batch_us"] - plainUS
	// Each batch above left its inputs on the engine; Step replays one
	// 64-lane cycle on them.
	m["sim.step_fast_ns"] = timeIt(sz.reps, 2000, plainB.r.S.Step)
	m["sim.step_fault_ns"] = timeIt(sz.reps, 2000, faultB.r.S.Step)

	ref := d.Spec.NewRefEncrypter(camp.Key)
	x := camp.Seed
	m["spn.ref_ns"] = timeIt(sz.reps, 20000, func() { x = ref.Encrypt(x) })

	for k, v := range faultLayers(c, sz, m["core.batch_us"], m["spn.ref_ns"], chk) {
		m[k] = v
	}

	p, err := plan.New(d, plan.Request{K: 2, Sboxes: []int{c.req.Campaign.Faults[0].Sbox}})
	chk.check(err)
	if err == nil {
		m["plan.placements"] = float64(len(p.Tuples))
		m["plan.new_us"] = timeIt(sz.reps, 50, func() {
			_, _ = plan.New(d, plan.Request{K: 2, Sboxes: []int{c.req.Campaign.Faults[0].Sbox}})
		}) / 1e3
	}
	return m
}

// faultLayers times the case's campaign under several engine
// configurations, requiring every configuration to compute the same
// tallies. The engine's own share is what remains of a run once the batch
// it simulates (batchUS per 64 runs) and its reference encryption (refNS)
// are taken off.
func faultLayers(c layerCase, sz sizes, batchUS, refNS float64, chk *checks) map[string]float64 {
	m := map[string]float64{}
	var want *fault.Result
	execute := func(cfg fault.EngineConfig, onBatch func(int, fault.Result)) time.Duration {
		camp := *c.camp
		camp.Engine = cfg
		start := time.Now()
		res, err := camp.ExecuteBatchesFunc(context.Background(), 0, camp.NumBatches(), nil, onBatch)
		el := time.Since(start)
		switch {
		case err != nil:
			chk.check(err)
		case want == nil:
			want = &res
			chk.check(checkCampaign(service.NewCampaignResult(res), camp.Runs))
		case res != *want:
			chk.check(fmt.Errorf("engine config %+v computed %v, want %v", cfg, res, *want))
		}
		return el
	}
	timed := func(cfg fault.EngineConfig) float64 {
		xs := make([]float64, sz.reps)
		for r := range xs {
			xs[r] = float64(execute(cfg, nil))
		}
		return median(xs)
	}
	runs := float64(c.camp.Runs)
	p1 := timed(fault.EngineConfig{Parallelism: 1})
	m["fault.p1_ns_per_run"] = p1 / runs
	m["fault.self_ns_per_run"] = p1/runs - batchUS*1000/sim.Lanes - refNS
	m["fault.parallel_speedup"] = p1 / timed(fault.EngineConfig{})
	m["fault.w2_speedup"] = p1 / timed(fault.EngineConfig{LaneWords: 2, Parallelism: 1})
	m["fault.w4_speedup"] = p1 / timed(fault.EngineConfig{LaneWords: 4, Parallelism: 1})

	var gaps []float64
	for r := 0; r < sz.reps; r++ {
		last := time.Now()
		execute(fault.EngineConfig{}, func(int, fault.Result) {
			now := time.Now()
			gaps = append(gaps, us(now.Sub(last)))
			last = now
		})
	}
	sorted := sortedCopy(gaps)
	m["fault.batch_gap_p50_us"] = percentile(sorted, 50)
	m["fault.batch_gap_p90_us"] = percentile(sorted, 90)

	var allocs, bytes []float64
	for r := 0; r < sz.reps; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		execute(fault.EngineConfig{}, nil)
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/runs)
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	m["fault.allocs_per_run"] = median(allocs)
	m["fault.bytes_per_run"] = median(bytes)

	one := *c.camp
	one.Runs = sim.Lanes
	m["fault.call_overhead_us"] = timeIt(sz.reps, 20, func() {
		if _, err := one.Execute(nil); err != nil {
			chk.check(err)
		}
	})/1e3 - batchUS
	return m
}

// leakageLayers measures the TVLA evaluator on the unmasked and the masked
// core, the Welch accumulator, and the evaluator's own residual.
func leakageLayers(seed uint64, sz sizes, m map[string]float64, chk *checks) {
	key := spn.KeyState{seed, seed >> 48}
	step := func(scheme string) (stepMS, probeUS float64) {
		d, err := service.BuildDesign(design(scheme, "prime"))
		if err != nil {
			chk.check(err)
			return 0, 0
		}
		ev, err := leakage.New(leakage.Config{
			Design: d, Key: key, Model: power.HammingDistance,
			Pairs: sz.steps * leakage.PairsPerBatch, Seed: seed, FixedPT: seed,
		})
		chk.check(err)
		if err != nil {
			return 0, 0
		}
		var steps []float64
		for !ev.Done() {
			start := time.Now()
			ev.Step()
			steps = append(steps, ms(time.Since(start)))
		}
		b, err := newBatchBench(d, key, nil, seed)
		chk.check(err)
		if err != nil {
			return median(steps), 0
		}
		p := power.Attach(b.r, power.HammingDistance)
		return median(steps), timeIt(sz.reps, 10, func() { p.BeginBatch(); b.encrypt() }) / 1e3
	}
	unmaskedMS, probeUS := step("three-in-one")
	m["leakage.step_unmasked_ms"] = unmaskedMS
	m["leakage.step_masked_ms"], _ = step("masked")

	tt := stats.NewTTest(presentRounds + 1)
	trace := make([]float64, presentRounds+1)
	k := 0
	m["stats.add_ns"] = timeIt(sz.reps, 200000, func() { tt.Add(k&1, trace); k++ })
	m["leakage.self_us"] = unmaskedMS*1000 - probeUS - sim.Lanes*m["stats.add_ns"]/1000
}

// probeSeed gives probe job j a seed no op of the run uses.
func probeSeed(req service.JobRequest, j int) service.JobRequest {
	cs := *req.Campaign
	cs.Seed ^= service.U64(uint64(j+1) * opGamma)
	cs.Runs = serviceRuns
	req.Campaign = &cs
	return req
}

// spanDurations collects the durations, in ns, of the spans with a name.
func spanDurations(spans []Span, name string, keep func(Span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// serviceLayers submits the workload's campaigns to a fresh single-node
// service from one caller, each fresh and then replayed, and derives the
// service and store metrics from the job records, the middleware spans and
// the service's own instruments.
func serviceLayers(e env, cases []layerCase, sz sizes, m map[string]float64, chk *checks) {
	reg := obs.NewRegistry()
	rec := newRecorder()
	s, err := startService(env{w: e.w, seed: e.seed, rec: rec, reg: reg}, false)
	if err != nil {
		chk.check(err)
		return
	}
	defer s.close()
	var wait, run, replayRun, replayLat []float64
	// unexplained is each fresh job's client latency less its queue wait
	// and run time; the submit handler's time is taken off below.
	unexplained := map[string]float64{}
	for j := 0; j < sz.jobs; j++ {
		req := probeSeed(cases[j%len(cases)].req, j)
		sp := rec.root(context.Background(), fmt.Sprintf("probe%d", j), "op")
		fresh, err := s.submit(sp.context(), req)
		chk.check(err)
		if err != nil {
			sp.end(nil)
			continue
		}
		chk.check(checkCampaign(fresh.result, req.Campaign.Runs))
		replay, err := s.submit(sp.context(), req)
		sp.end(nil)
		chk.check(err)
		if err == nil && replay.result != fresh.result {
			chk.check(fmt.Errorf("probe replay %+v differs from %+v", replay.result, fresh.result))
		}
		st := fresh.status
		w, r := ms(st.Started.Sub(st.Submitted)), ms(st.Finished.Sub(*st.Started))
		wait = append(wait, w)
		run = append(run, r)
		unexplained[st.ID] = ms(fresh.latency) - w - r
		if err == nil {
			replayRun = append(replayRun, ms(replay.status.Finished.Sub(*replay.status.Started)))
			replayLat = append(replayLat, ms(replay.latency))
		}
	}
	spans := rec.Spans()
	submit := map[string]float64{}
	var submits []float64
	for _, sp := range spans {
		if sp.Name == "POST /v1/jobs" {
			d := float64(sp.End-sp.Start) / 1e6
			submits = append(submits, d)
			submit[attrString(sp.Attrs, "job")] = d
		}
	}
	m["service.submit_ms"] = median(submits)
	m["service.queue_wait_ms"] = median(wait)
	m["service.run_ms"] = median(run)
	m["service.replay_run_ms"] = median(replayRun)
	m["service.replay_p50_ms"] = median(replayLat)
	var lags []float64
	for id, u := range unexplained {
		lags = append(lags, u-submit[id])
	}
	m["service.result_lag_ms"] = median(lags)
	if cp := s.svc.Metrics.CheckpointNS; cp.Count() > 0 {
		n := cp.Count()
		m["service.checkpoint_ms"] = float64(cp.Sum()) / float64(n) / 1e6
	}
	hits := reg.NewCounter("scone_store_hits_total", "").Value()
	misses := reg.NewCounter("scone_store_misses_total", "").Value()
	if hits+misses > 0 {
		m["store.hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// The jobs are finished, so the result log holds every batch and run
	// record they wrote; the store replays work on a copy of it.
	logCopy := filepath.Join(s.dir, "copy.log")
	if err := copyFile(filepath.Join(s.dir, "results.log"), logCopy); err != nil {
		chk.check(err)
		return
	}
	storeLayers(logCopy, s.dir, sz, m, chk)
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// storeLayers opens the copied log, looks every stored batch up, and
// appends the same batches to a fresh log with a sync every 16 puts — the
// service's per-checkpoint cadence at 4096-run checkpoints.
func storeLayers(logPath, dir string, sz sizes, m map[string]float64, chk *checks) {
	var opens []float64
	for r := 0; r < sz.reps; r++ {
		start := time.Now()
		st, err := store.Open(logPath)
		opens = append(opens, ms(time.Since(start)))
		chk.check(err)
		if err != nil {
			return
		}
		if err := st.Close(); err != nil {
			chk.check(err)
		}
	}
	m["store.open_ms"] = median(opens)

	st, err := store.Open(logPath)
	if err != nil {
		chk.check(err)
		return
	}
	defer st.Close()
	seen := map[store.BatchKey]bool{}
	var keys []store.BatchKey
	for _, rec := range st.Runs() {
		digest, err := store.ParseDigest(rec.Campaign)
		if err != nil {
			continue
		}
		for b := 0; b < rec.Batches; b++ {
			k := store.BatchKey{Campaign: digest, Batch: b, Runs: min(sim.Lanes, rec.Runs-b*sim.Lanes)}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		chk.check(fmt.Errorf("result log holds no batches"))
		return
	}
	counts := make([]store.Counts, len(keys))
	m["store.get_us"] = timeIt(sz.reps, 1, func() {
		for i, k := range keys {
			c, ok := st.GetBatch(k)
			if !ok {
				chk.check(fmt.Errorf("stored batch %d of %s missing", k.Batch, k.Campaign))
			}
			counts[i] = c
		}
	}) / 1e3 / float64(len(keys))

	var puts, syncs []float64
	for r := 0; r < sz.reps; r++ {
		fresh, err := store.Open(filepath.Join(dir, fmt.Sprintf("put%d.log", r)))
		if err != nil {
			chk.check(err)
			return
		}
		var put time.Duration
		for i, k := range keys {
			start := time.Now()
			if err := fresh.PutBatch(k, counts[i]); err != nil {
				chk.check(err)
			}
			put += time.Since(start)
			if i%16 == 15 {
				start = time.Now()
				chk.check(fresh.Sync())
				syncs = append(syncs, ms(time.Since(start)))
			}
		}
		puts = append(puts, us(put)/float64(len(keys)))
		chk.check(fresh.Close())
	}
	m["store.put_us"] = median(puts)
	m["store.sync_ms"] = median(syncs)
}

// fabricLayers submits the workload's campaigns to a fresh coordinator with
// two in-process workers and derives the lease metrics from the middleware
// spans: per lease, acquire response to complete request; per worker,
// complete response to the next granted acquire.
func fabricLayers(e env, cases []layerCase, sz sizes, m map[string]float64, chk *checks) {
	reg := obs.NewRegistry()
	rec := newRecorder()
	s, err := startService(env{w: e.w, seed: e.seed, rec: rec, reg: reg}, true)
	if err != nil {
		chk.check(err)
		return
	}
	defer s.close()
	jobs := 0
	for j := 0; j < sz.jobs; j++ {
		req := probeSeed(cases[j%len(cases)].req, sz.jobs+j)
		sp := rec.root(context.Background(), fmt.Sprintf("probe%d", j), "op")
		r, err := s.submit(sp.context(), req)
		sp.end(nil)
		chk.check(err)
		if err == nil {
			jobs++
			chk.check(checkCampaign(r.result, req.Campaign.Runs))
		}
	}
	chk.check(s.check())
	if jobs == 0 {
		return
	}
	m["service.leases_per_job"] = float64(s.svc.Metrics.LeasesGranted.Value()) / float64(jobs)

	spans := rec.Spans()
	granted := func(sp Span) bool { return attrString(sp.Attrs, "lease") != "" }
	m["service.lease_acquire_us"] = median(spanDurations(spans, "POST /v1/leases/acquire", granted)) / 1e3
	m["service.lease_complete_us"] = median(spanDurations(spans, "POST /v1/leases/{id}/complete", nil)) / 1e3

	acquired := map[string]Span{}
	var exec, idle []float64
	lastComplete := map[string]Span{}
	for _, sp := range spans { // ordered by start
		worker := attrString(sp.Attrs, "worker")
		switch {
		case sp.Name == "POST /v1/leases/acquire" && granted(sp):
			acquired[attrString(sp.Attrs, "lease")] = sp
			if c, ok := lastComplete[worker]; ok {
				idle = append(idle, float64(sp.Start-c.End)/1e6)
				delete(lastComplete, worker)
			}
		case sp.Name == "POST /v1/leases/{id}/complete":
			if a, ok := acquired[attrString(sp.Attrs, "lease")]; ok {
				exec = append(exec, float64(sp.Start-a.End)/1e6)
			}
			lastComplete[worker] = sp
		}
	}
	m["client.lease_exec_ms"] = median(exec)
	// Most gaps are a worker going straight on to the next lease of the
	// same job; the mean keeps the idle polls between jobs in view.
	m["client.lease_idle_ms"] = mean(idle)
}
