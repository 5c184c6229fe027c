package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/sim"
)

// goldenOps is the number of leading ops whose tallies are pinned for the
// default seed; warm-up always covers at least this many.
const goldenOps = 8

// Shares of the op list: the leading warm-up ops are checked but not timed;
// the traced run replays the leading quarter.
const (
	warmupShare = 0.05
	prefixShare = 0.25
)

// minOps is the shortest op list: the golden ops plus a few timed ones.
const minOps = goldenOps + 4

// defaultSeconds is the run length the workloads' op lists are sized for.
const defaultSeconds = 20

// opCount is the length of a workload's op list for a run of the given
// seconds. It depends on nothing measured, so every commit runs the same
// ops, and its tally digest and peak RSS cover the same work.
func (w workload) opCount(seconds float64) int {
	return max(minOps, int(math.Round(float64(w.ops)*seconds/defaultSeconds)))
}

// chunks splits an n-op list into the op ranges [from, to) the workload's
// measuring children run in turn, each at least minOps long.
func (w workload) chunks(n int) [][2]int {
	k := max(1, min(w.processes, n/minOps))
	out := make([][2]int, k)
	for c := range out {
		out[c] = [2]int{c * n / k, (c + 1) * n / k}
	}
	return out
}

func warmupOps(n int) int { return max(goldenOps, int(math.Ceil(warmupShare*float64(n)))) }

func prefixOps(n int) int { return max(goldenOps, int(math.Ceil(prefixShare*float64(n)))) }

// timeCap bounds a run of the given seconds on a commit far slower than the
// one the op lists were sized on: ops not started by then count as failed,
// and the run still reports within the three minutes a caller may allow it.
func timeCap(seconds float64) time.Duration {
	return min(time.Duration(5*seconds*float64(time.Second))+30*time.Second, 120*time.Second)
}

// report is one workload run: what a child hands its parent, what the
// parent prints, and what -report-dir keeps for compare.
type report struct {
	Workload  string      `json:"workload"`
	Seed      service.U64 `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	// Ops counts the op-list entries run, WarmupOps those among them that
	// were checked but not timed.
	Ops       int `json:"ops"`
	WarmupOps int `json:"warmup_ops"`
	// TallyDigest is SHA-256 over the op tallies in op order: two commits
	// computed bit-identical outputs when their digests for the same
	// workload, seed and -seconds agree.
	TallyDigest string `json:"tally_digest,omitempty"`
	// Tallies are the tallies of the ops run, in op order.
	Tallies []string          `json:"tallies,omitempty"`
	SetupS  float64           `json:"setup_s,omitempty"`
	Metrics map[string]metric `json:"metrics"`
	Errors  []string          `json:"errors,omitempty"`
	// Timing is what a measuring child hands its parent, which merges the
	// timings of all the workload's measuring children into the end-to-end
	// metrics.
	Timing *timing `json:"timing,omitempty"`
}

// timing is the raw timing of a range of timed ops.
type timing struct {
	// JobMS is the latency of each timed op that succeeded; FailedJobs
	// counts the others.
	JobMS      []float64 `json:"job_ms"`
	FailedJobs int       `json:"failed_jobs"`
	// Runs were delivered by the timed ops in WallS seconds of wall time and
	// CPUS seconds of process CPU time.
	Runs  int     `json:"runs"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

func (t *timing) add(u timing) {
	t.JobMS = append(t.JobMS, u.JobMS...)
	t.FailedJobs += u.FailedJobs
	t.Runs += u.Runs
	t.WallS += u.WallS
	t.CPUS += u.CPUS
}

func (r *report) fail(err error) {
	r.Failed++
	r.note(err.Error())
}

// note keeps the first few error messages.
func (r *report) note(msg string) {
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, msg)
	}
}

// setTimings derives the timed end-to-end metrics.
func (r *report) setTimings(t timing) {
	jobs := sortedCopy(t.JobMS)
	for k := 0; k < t.FailedJobs; k++ {
		jobs = append(jobs, math.Inf(1)) // a failed op misses every latency limit
	}
	n := len(jobs)
	r.set("runs_per_s", float64(t.Runs)/t.WallS, n)
	r.set("job_p50_ms", percentile(jobs, 50), n)
	r.set("job_p90_ms", percentile(jobs, 90), n)
	r.set("cpu_us_per_run", 1e6*t.CPUS/float64(t.Runs), t.Runs)
}

// digest sets TallyDigest from Tallies.
func (r *report) digest() {
	h := sha256.New()
	for i, t := range r.Tallies {
		fmt.Fprintf(h, "%d %s\n", i, t)
	}
	r.TallyDigest = hex.EncodeToString(h.Sum(nil))
}

// set records a metric. A value that could not be measured (no samples, or
// a failed op inside a percentile) fails the run instead of being printed.
func (r *report) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Errorf("%s could not be measured", name))
		return
	}
	m, _ := findMetric(name)
	r.Metrics[name] = metric{Value: v, Unit: m.Unit, Samples: samples}
}

// score checks the ops first, first+1, ...: every op's own checks, and for
// the default seed the golden tallies. It returns their tallies.
func (r *report) score(cfg config, first int, ops []opResult) []string {
	golden := cfg.golden[cfg.workload]
	tallies := make([]string, len(ops))
	for k, o := range ops {
		i := first + k
		err := o.err
		if err == nil && cfg.seed == defaultSeed && i < len(golden) && o.tally != golden[i] {
			err = fmt.Errorf("tally %q differs from the golden %q", o.tally, golden[i])
		}
		if err != nil {
			r.fail(fmt.Errorf("op %d: %w", i, err))
		}
		tallies[k] = o.tally
	}
	r.Attempted += len(ops)
	return tallies
}

// unstarted counts the ops the time cap left unstarted as failed.
func (r *report) unstarted(ran, n int) {
	if ran == n {
		return
	}
	r.fail(fmt.Errorf("%d of %d ops not started within the time cap", n-ran, n))
	r.Attempted += n - ran
	r.Failed += n - ran - 1
}

// phase is ops run by the workload's callers: the ones before its mark warm
// up, the rest are timed.
type phase struct {
	ops []opResult
	// wall and cpu run from the claim of the first timed op to the end of
	// the last op.
	wall time.Duration
	cpu  time.Duration
}

func runs(ops []opResult) int {
	n := 0
	for _, o := range ops {
		n += o.runs
	}
	return n
}

// runOps runs the ops that ids lists, in that order, from the workload's
// closed-loop callers, and times them from the claim of ids[mark] on. Warm-up
// and timed ops run as one phase, so the stack never idles between them. No
// op starts after the deadline; ops in flight then complete, so the ops run
// are a prefix of ids.
func runOps(ctx context.Context, d stack, callers int, ids []int, mark int, deadline time.Time) phase {
	var mu sync.Mutex
	next := 0
	var start time.Time
	var cpu0 time.Duration
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == len(ids) || time.Now().After(deadline) {
			return 0, false
		}
		if next == mark {
			start, cpu0 = time.Now(), cpuTime()
		}
		next++
		return next - 1, true
	}
	ops := make([]opResult, len(ids))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := claim()
				if !ok {
					return
				}
				ops[k] = d.run(ctx, ids[k])
			}
		}()
	}
	wg.Wait()
	return phase{ops: ops[:next], wall: time.Since(start), cpu: cpuTime() - cpu0}
}

// opIDs lists op indices first, first+1, ..., first+n-1.
func opIDs(first, n int) []int {
	ids := make([]int, n)
	for k := range ids {
		ids[k] = first + k
	}
	return ids
}

// enableObservability wires every layer's instruments to reg, as sconed
// does, so instrument overhead is part of what is measured.
func enableObservability(reg *obs.Registry) {
	sim.EnableObservability(reg)
	fault.EnableObservability(reg)
	plan.EnableObservability(reg)
	leakage.EnableObservability(reg)
}

// child runs one workload inside a child process. start is the process's
// start, the origin of set-up time.
func child(mode string, cfg config, start time.Time) (report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	reg := obs.NewRegistry()
	enableObservability(reg)
	e := env{w: w, seed: cfg.seed, reg: reg}
	rep := report{Workload: w.name, Seed: service.U64(cfg.seed), Seconds: cfg.seconds, Trace: mode == "trace", Metrics: map[string]metric{}}
	switch mode {
	case "setup":
		d, err := w.open(e)
		if err != nil {
			return rep, err
		}
		rep.SetupS = time.Since(start).Seconds()
		return rep, d.close()
	case "run":
		return rep, measure(cfg, e, start, &rep)
	case "trace":
		return rep, traced(cfg, e, &rep)
	}
	return rep, fmt.Errorf("unknown child mode %q", mode)
}

// measure is an untraced run behind the end-to-end metrics: set-up, then
// the op list's chunk cfg.chunk, whose leading warm-up ops are checked but
// not timed. It hands the timed ops' raw timing to the parent.
func measure(cfg config, e env, start time.Time, rep *report) error {
	d, err := e.w.open(e)
	if err != nil {
		return err
	}
	rep.SetupS = time.Since(start).Seconds()
	chunks := e.w.chunks(e.w.opCount(cfg.seconds))
	if cfg.chunk < 0 || cfg.chunk >= len(chunks) {
		return fmt.Errorf("chunk %d of a %d-chunk op list", cfg.chunk, len(chunks))
	}
	first, n := chunks[cfg.chunk][0], chunks[cfg.chunk][1]-chunks[cfg.chunk][0]
	warm := warmupOps(n)
	deadline := time.Now().Add(timeCap(cfg.seconds) / time.Duration(len(chunks)))
	p := runOps(context.Background(), d, e.w.callers, opIDs(first, n), warm, deadline)
	checkErr := d.check()
	if err := d.close(); err != nil {
		return err
	}

	rep.Ops = n
	rep.WarmupOps = warm
	rep.Tallies = rep.score(cfg, first, p.ops)
	rep.unstarted(len(p.ops), n)
	if checkErr != nil {
		rep.fail(checkErr)
	}
	timed := p.ops[min(warm, len(p.ops)):]
	t := &timing{Runs: runs(timed), WallS: p.wall.Seconds(), CPUS: p.cpu.Seconds()}
	for _, o := range timed {
		if o.err != nil {
			t.FailedJobs++
		} else {
			t.JobMS = append(t.JobMS, ms(o.latency))
		}
	}
	rep.Timing = t
	rep.Correct = rep.Failed == 0
	return nil
}

// traced is the -trace run. The leading quarter of the op list's first chunk
// runs untraced, then again with spans recorded, then untraced once more,
// each pass on a freshly opened stack warmed up beforehand; the untraced
// passes on both sides of the traced one cancel drift in the machine's speed
// out of the overhead ratio. Then every layer is replayed on the workload's
// own designs and inputs.
func traced(cfg config, e env, rep *report) error {
	n := prefixOps(e.w.chunks(e.w.opCount(cfg.seconds))[0][1])
	deadline := time.Now().Add(timeCap(cfg.seconds))
	plain, err := prefixPass(e, n, deadline, rep)
	if err != nil {
		return err
	}
	rep.score(cfg, 0, plain.ops)

	rec := newRecorder()
	te := e
	te.rec = rec
	tr, err := prefixPass(te, n, deadline, rep)
	if err != nil {
		return err
	}
	rep.Tallies = rep.score(cfg, 0, tr.ops)
	rep.digest()
	rep.Ops = n
	after, err := prefixPass(e, n, deadline, rep)
	if err != nil {
		return err
	}
	rep.score(cfg, 0, after.ops)
	for _, p := range []passResult{plain, tr, after} {
		rep.unstarted(len(p.ops), n)
	}
	for i, o := range tr.ops {
		if o.result == nil {
			continue
		}
		rep.Attempted++
		if err := matchLibrary(o); err != nil {
			rep.fail(fmt.Errorf("op %d: %w", i, err))
		}
	}

	layers, chk := measureLayers(e, cfg.short)
	rep.Attempted += chk.n
	for _, err := range chk.failed {
		rep.fail(err)
	}
	for name, v := range layers {
		rep.set(name, v, 0)
	}
	rep.set("trace.overhead_ratio", 2*tr.wall.Seconds()/(plain.wall+after.wall).Seconds(), len(tr.ops))
	rep.set("trace.spans", float64(tr.spans), len(tr.ops))
	rep.set("sim.evals_per_run", float64(tr.evals)/float64(tr.runs), int(tr.runs))
	rep.Correct = rep.Failed == 0

	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return err
	}
	return rec.writeFile(filepath.Join(cfg.traceOut, traceFile(cfg)))
}

func traceFile(cfg config) string {
	return fmt.Sprintf("%s-%d.trace.json", cfg.workload, cfg.seed)
}

// warmupBase offsets the ops a traced pass warms its fresh stack up with,
// far from the prefix it times, so the two share no stored results.
const warmupBase = 1 << 20

// passResult is a timed prefix with the spans recorded and the simulator
// evaluations and runs performed over the whole pass, warm-up included.
type passResult struct {
	phase
	spans       int
	evals, runs int64
}

// prefixPass opens a fresh stack (traced when e.rec is set) and runs, as one
// phase, goldenOps untimed warm-up ops from far down the op list followed by
// the timed prefix, ops 0 to n-1.
func prefixPass(e env, n int, deadline time.Time, rep *report) (passResult, error) {
	d, err := e.w.open(e)
	if err != nil {
		return passResult{}, err
	}
	evals := e.reg.NewCounter("scone_sim_evals_total", "")
	spans0, evals0 := e.rec.count(), evals.Value()
	ids := append(opIDs(warmupBase, goldenOps), opIDs(0, n)...)
	p := runOps(context.Background(), tracedStack{d, e.rec}, e.w.callers, ids, goldenOps, deadline)
	res := passResult{spans: e.rec.count() - spans0, evals: evals.Value() - evals0, runs: int64(runs(p.ops))}
	warm := p.ops[:min(goldenOps, len(p.ops))]
	rep.Attempted += len(warm)
	for i, o := range warm {
		if o.err != nil {
			rep.fail(fmt.Errorf("warm-up op %d: %w", warmupBase+i, o.err))
		}
	}
	p.ops = p.ops[len(warm):]
	res.phase = p
	if err := d.check(); err != nil {
		rep.fail(err)
	}
	return res, d.close()
}

// tracedStack opens each op's root span; the op's trace id is its index.
type tracedStack struct {
	stack
	rec *recorder
}

func (t tracedStack) run(ctx context.Context, i int) opResult {
	sp := t.rec.root(ctx, fmt.Sprintf("op%d", i), "op")
	r := t.stack.run(sp.context(), i)
	attrs := map[string]any{"runs": r.runs}
	if r.err != nil {
		attrs["error"] = r.err.Error()
	}
	sp.end(attrs)
	return r
}

// matchLibrary re-executes a service or fabric op's campaign in-process and
// requires the delivered result to equal it.
func matchLibrary(o opResult) error {
	camp, err := service.BuildCampaign(o.req.Design, o.req.Campaign, service.EngineDefaults{})
	if err != nil {
		return err
	}
	res, err := camp.Execute(nil)
	if err != nil {
		return err
	}
	if want := service.NewCampaignResult(res); want != *o.result {
		return fmt.Errorf("delivered %+v, library execution %+v", *o.result, want)
	}
	return nil
}

var errIncorrect = errors.New("outputs failed their correctness checks")
