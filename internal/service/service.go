package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of worker goroutines serving the job queue
	// (jobs running concurrently). Default 2.
	Workers int
	// QueueDepth bounds the queued-but-not-started backlog: Submit answers
	// ErrQueueFull beyond it. Default 64. A restart re-enqueues every
	// unfinished job on disk, whatever the bound.
	QueueDepth int
	// StateDir holds the state log, results.log: job records, checkpoints
	// and stored results. "" runs in memory only (no resume on restart).
	StateDir string
	// CheckpointEveryRuns is the campaign checkpoint/progress interval
	// in simulated runs; rounded up to whole sim.Lanes batches. Without
	// Dist it is also the size of the lease a job claims and runs in one
	// engine call. Default 4096.
	CheckpointEveryRuns int
	// SimWorkers bounds the goroutines inside one campaign execution
	// (fault.EngineConfig.Parallelism). Default GOMAXPROCS. Pure execution
	// policy: results and stored batch digests are identical at every
	// setting.
	SimWorkers int
	// Obs is the metrics registry the service registers its instruments
	// on. nil creates a private registry, which keeps multiple Service
	// instances in one process from sharing counters; the daemon passes a
	// shared registry so service, sim and fault metrics render as one
	// exposition.
	Obs *obs.Registry
	// Dist configures the worker protocol. Every service runs its
	// campaigns as batch-range leases; when enabled this service is a
	// coordinator and sconed worker processes pull them instead of the
	// job's own goroutine.
	Dist DistConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CheckpointEveryRuns <= 0 {
		c.CheckpointEveryRuns = 4096
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// engineDefaults is the host execution policy every campaign runs under.
func (c Config) engineDefaults() EngineDefaults {
	return EngineDefaults{Workers: c.SimWorkers}
}

// ErrUnknownJob is returned for IDs the service has never seen.
var ErrUnknownJob = errors.New("service: unknown job")

// job is the in-memory state of one job: its wire status plus its request,
// the checkpoint it resumes from, cancel function and stream subscribers.
// All mutable fields are guarded by Service.mu; the campaign hot loop runs
// without it and communicates through per-chunk callbacks.
type job struct {
	JobStatus
	req        JobRequest
	checkpoint *Checkpoint
	userCancel bool
	cancel     context.CancelFunc // set while running

	subs    map[int]chan Event
	nextSub int
}

// Service is the campaign server: a bounded FIFO job queue feeding a fixed
// worker pool, with durable state when a StateDir is configured.
type Service struct {
	cfg     Config
	Metrics *Metrics
	dist    *coordinator // the lease table every campaign runs through
	designs *DesignCache

	baseCtx context.Context
	stop    context.CancelFunc

	// results is the state log (StateDir/results.log): the content-
	// addressed campaign result store and the job records. nil without a
	// StateDir; every store method is nil-safe, so the storeless service
	// runs the same code path with every lookup a miss.
	results *store.Store

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	pending  []*job     // the job queue, oldest first (see queue.go)
	wake     *sync.Cond // on mu: a job was queued or drain began
	draining bool

	wg sync.WaitGroup
}

// New opens the state dir, resumes any incomplete jobs it records, and
// starts the worker pool.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*job),
		designs: NewDesignCache(),
	}
	s.wake = sync.NewCond(&s.mu)
	var legacy [][]byte // an older daemon's jobs/*.json: read, never written
	if cfg.StateDir != "" {
		rs, err := store.Open(filepath.Join(cfg.StateDir, "results.log"))
		if err != nil {
			cancel()
			return nil, err
		}
		rs.EnableObservability(reg)
		s.results = rs
		names, _ := filepath.Glob(filepath.Join(cfg.StateDir, "jobs", "*.json"))
		for _, name := range names {
			b, _ := os.ReadFile(name)
			legacy = append(legacy, b)
		}
	}
	dc := cfg.Dist
	if !dc.Enabled {
		// A job claims its own leases, each one checkpoint chunk.
		dc.LeaseBatches = (cfg.CheckpointEveryRuns + sim.Lanes - 1) / sim.Lanes
	}
	s.dist = newCoordinator(dc)
	s.dist.results = s.results
	s.Metrics = newMetrics(reg, s.QueueLen, s.dist)
	s.dist.metrics = s.Metrics
	go s.dist.janitor(ctx.Done())

	s.mu.Lock() // the queue gauge on reg may already be sampled
	s.loadJobsLocked(legacy)
	s.mu.Unlock()

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit validates and enqueues a job, returning its initial status.
func (s *Service) Submit(req JobRequest) (JobStatus, error) {
	if err := req.Validate(); err != nil {
		return JobStatus{}, fmt.Errorf("invalid request: %w", err)
	}
	if err := s.checkDesign(req); err != nil {
		return JobStatus{}, fmt.Errorf("invalid request: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		return JobStatus{}, ErrQueueFull
	}
	j := &job{
		JobStatus: JobStatus{
			ID:        fmt.Sprintf("j%06d", s.nextID),
			Kind:      req.Kind,
			State:     StateQueued,
			Submitted: time.Now().UTC(),
		},
		req:  req,
		subs: make(map[int]chan Event),
	}
	if err := s.logLocked(j, &req, nil); errors.Is(err, store.ErrTooLarge) {
		return JobStatus{}, fmt.Errorf("invalid request: %w", err)
	}
	s.enqueueLocked(j)
	s.nextID++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.Metrics.JobsSubmitted.Inc()
	return s.statusLocked(j), nil
}

// checkDesign is Validate's second half for the kinds that run on a cached
// design: it resolves what the request addresses on that design — fault
// coordinates, branches and cycles, a persistent corruption, a sweep's
// S-box filter and cone — so a request no job could run is rejected before
// a job ID is minted. The job that follows reuses the cached design.
func (s *Service) checkDesign(req JobRequest) error {
	if req.Kind != KindCampaign && req.Kind != KindMultiFault && req.Kind != KindLeakage {
		return nil
	}
	e, err := s.designs.get(req.Design)
	if err != nil {
		return err
	}
	switch req.Kind {
	case KindCampaign:
		_, err = buildCampaign(e.d, req.Campaign, EngineDefaults{})
	case KindMultiFault:
		err = checkMultiFault(e.d, req.MultiFault)
	case KindLeakage:
		_, err = resolveFaults(e.d, req.Leakage.Faults)
	}
	return err
}

// Get returns a job's status.
func (s *Service) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

// List returns every job in submission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Cancel stops a job: queued jobs are marked canceled immediately, running
// jobs are interrupted at their next batch boundary. Cancelling a terminal
// job is a no-op.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	switch j.State {
	case StateQueued:
		j.userCancel = true
		s.dequeueLocked(j)
		s.finishLocked(j, StateCanceled, nil, "")
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return s.statusLocked(j), nil
}

// Watch subscribes to a job's event stream. The returned channel delivers
// progress and terminal events and is closed when the job reaches a
// terminal state (read the final status with Get); call off to detach
// early. Slow consumers may miss intermediate progress events — the stream
// is a live feed, not a journal.
func (s *Service) Watch(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrUnknownJob
	}
	ch := make(chan Event, 16)
	if j.State.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	key := j.nextSub
	j.nextSub++
	j.subs[key] = ch
	off := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(j.subs, key) // publisher holds mu, so no send can race this
	}
	return ch, off, nil
}

// Drain gracefully shuts the service down: intake stops, running campaigns
// checkpoint and return to the queued state (durably, when a StateDir is
// configured), and the workers exit. ctx bounds the wait. A subsequent New
// on the same StateDir resumes the interrupted jobs.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.wake.Broadcast() // idle workers exit
	s.mu.Unlock()
	s.dist.setDraining() // parked and later lease acquires answer 503 draining
	s.stop()             // interrupt running jobs at their next batch boundary

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Workers are quiesced; the result store can close durably. Late
		// distributed lease reports now get store-closed errors, which the
		// put-error counter records and the determinism contract absorbs —
		// the batches are simply re-simulated next time.
		return s.results.Close()
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Close is Drain without a deadline.
func (s *Service) Close() error { return s.Drain(context.Background()) }

// statusLocked snapshots a job. Callers hold s.mu.
func (s *Service) statusLocked(j *job) JobStatus {
	st := j.JobStatus
	if j.Progress != nil {
		p := *j.Progress
		st.Progress = &p
	}
	return st
}

// logLocked appends a job record — status, plus the request at submit or a
// commit's checkpoint delta — without syncing (commit syncs outside s.mu).
// A failure is recorded on the job rather than crashing the worker.
func (s *Service) logLocked(j *job, req *JobRequest, cp *Checkpoint) error {
	if s.results == nil {
		return nil
	}
	rec := jobRecord{JobStatus: j.JobStatus, Req: req, Checkpoint: cp}
	rec.Result = withoutUnits(rec.Result)
	sp := obs.StartSpan(s.Metrics.CheckpointNS)
	b, err := json.Marshal(&rec)
	if err == nil {
		err = s.results.PutJob(b)
	}
	sp.End()
	if err != nil && j.Error == "" {
		j.Error = fmt.Sprintf("checkpoint write failed: %v", err)
	}
	return err
}

// Recovered reports what opening the state dir cost: the corrupt log bytes
// dropped and the job records skipped.
func (s *Service) Recovered() (logBytes, skippedRecords int64) {
	return s.results.RecoveredBytes(), s.Metrics.JobRecordsSkipped.Value()
}

// publishLocked fans an event out to the job's subscribers (non-blocking;
// laggards drop intermediate events).
func (s *Service) publishLocked(j *job, ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finishLocked moves a job to a terminal state, persists it and closes the
// event stream.
func (s *Service) finishLocked(j *job, state State, result *JobResult, errMsg string) {
	now := time.Now().UTC()
	j.State = state
	j.Result = result
	j.Error = errMsg
	j.Finished = &now
	j.cancel = nil
	if j.Started != nil {
		s.Metrics.JobRunNS.Observe(now.Sub(*j.Started).Nanoseconds())
	}
	switch state {
	case StateDone:
		s.Metrics.JobsCompleted.Inc()
	case StateFailed:
		s.Metrics.JobsFailed.Inc()
	case StateCanceled:
		s.Metrics.JobsCanceled.Inc()
	}
	s.logLocked(j, nil, nil)
	st := s.statusLocked(j)
	s.publishLocked(j, Event{Type: "result", Job: &st})
	for k, ch := range j.subs {
		close(ch)
		delete(j.subs, k)
	}
}

// worker runs queued jobs, oldest first, until drain.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := s.next(); j != nil; j = s.next() {
		s.runJob(j)
	}
}

// runJob executes one dequeued job.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	if j.State != StateQueued || s.draining {
		// Canceled between dequeue and start, or the service is shutting
		// down; a drained job stays queued on disk for the next process.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	now := time.Now().UTC()
	j.State = StateRunning
	j.Started = &now
	j.cancel = cancel
	s.Metrics.JobWaitNS.Observe(now.Sub(j.Submitted).Nanoseconds())
	s.Metrics.JobsRunning.Add(1)
	s.logLocked(j, nil, nil)
	st := s.statusLocked(j)
	s.publishLocked(j, Event{Type: "status", Job: &st})
	s.mu.Unlock()
	defer s.Metrics.JobsRunning.Add(-1)

	result, err := s.runKind(ctx, j)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, result, "")
	case errors.Is(err, context.Canceled) && j.userCancel:
		s.finishLocked(j, StateCanceled, nil, "")
	case errors.Is(err, context.Canceled):
		// Drain: back to queued with the checkpoint intact; the next
		// process resumes from here.
		j.State = StateQueued
		j.cancel = nil
		s.logLocked(j, nil, nil)
		st := s.statusLocked(j)
		s.publishLocked(j, Event{Type: "status", Job: &st})
	default:
		s.finishLocked(j, StateFailed, nil, err.Error())
	}
}

// jobRun is a running job's handle on the service's one job loop. Every
// kind is a function of its jobRun (see runKind): it resumes from cp when
// one is set, reports its starting point through progress, and calls
// commit at every unit boundary — campaign batches, proof pairs,
// multifault placements, trace batches. The loop owns everything else:
// resume accounting, checkpoint persistence, event publication and
// result-store durability. The one-shot kinds (attacks, area, lint) never
// commit, so a drained one-shot job simply reruns on the next start.
type jobRun struct {
	s  *Service
	j  *job
	cp *Checkpoint // the checkpoint to resume from; nil on a fresh start
}

// runKind resumes or starts the dequeued job through its kind's function.
func (s *Service) runKind(ctx context.Context, j *job) (*JobResult, error) {
	s.mu.Lock()
	r := &jobRun{s: s, j: j, cp: j.checkpoint}
	j.checkpoint = nil // the run owns it now
	if r.cp != nil {
		j.Resumed++
		s.Metrics.JobsResumed.Inc()
	}
	s.mu.Unlock()
	switch j.req.Kind {
	case KindCampaign:
		return r.campaign(ctx)
	case KindMultiFault:
		return r.multiFault(ctx)
	case KindProve:
		return r.prove(ctx)
	case KindLeakage:
		return r.leakage(ctx)
	case KindDFA, KindSIFA, KindFTA:
		return runAttack(ctx, j.req)
	case KindArea:
		return runArea(j.req)
	case KindLint:
		return runLint(j.req)
	}
	return nil, fmt.Errorf("unknown job kind %q", j.req.Kind)
}

// progress sets the job's progress without checkpointing: the resume point,
// before the first unit runs.
func (r *jobRun) progress(p *Progress) {
	r.s.mu.Lock()
	r.j.Progress = p
	r.s.mu.Unlock()
}

// commit records a unit boundary: it logs the cursor plus the units finished
// since the previous commit (cp), publishes the progress to stream
// subscribers, and syncs the state log — checkpoint cadence doubles as store
// durability cadence. The batches a commit counts were appended before it,
// so a commit that survives a crash keeps them.
func (r *jobRun) commit(cp *Checkpoint, p *Progress) {
	s, j := r.s, r.j
	s.mu.Lock()
	j.Progress = p
	s.Metrics.Checkpoints.Inc()
	s.logLocked(j, nil, cp)
	ev := *p
	s.publishLocked(j, Event{Type: "progress", Progress: &ev})
	s.mu.Unlock()
	_ = s.results.Sync()
}
