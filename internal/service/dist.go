package service

// The lease table: every campaign the service executes runs through it.
// register reads the result store once per remaining batch, pre-completes
// the cached ones and cuts the uncached gaps into batch-range *leases*. On a
// coordinator (Config.Dist.Enabled) worker processes (sconed -worker) pull
// the leases over HTTP, execute them via fault.Campaign.ExecuteBatchesFunc
// and report back, and the coordinator never simulates; on a single-node
// service the job's own goroutine claims and runs them, one checkpoint chunk
// each (exec.go). Because batch b of a campaign derives all randomness from
// (seed, b), a lease is location-transparent: any worker, any number of
// retries, any interleaving — the counts for a batch range are always the
// same, so one merge that folds completed ranges in batch order produces a
// result bit-identical to an uninterrupted run, whoever executed it.
//
// Failure handling is lease-shaped: a lease is granted to a worker with a
// TTL that only its heartbeats renew; an expired lease (worker died), a
// failed lease (worker errored) and a released lease (worker drained) all
// return to the pending set — the first two with jittered backoff and an
// attempt count that eventually fails the job, the last immediately and
// for free. An in-process claim has no TTL and no worker: the janitor never
// expires it and workers never see it. The service's own drain cancels
// campaign jobs back to the queued state with their merged-prefix
// checkpoint intact.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/store"
)

// DistConfig opens the worker protocol and tunes the leases it hands out.
// The zero value keeps it closed: the service's job goroutines then claim
// and run their campaigns' leases themselves, one checkpoint chunk
// (Config.CheckpointEveryRuns) each.
type DistConfig struct {
	// Enabled opens the worker protocol and hands campaign leases to
	// remote workers; the coordinator then never simulates. It is a
	// deployment setting because accepting tallies from other processes is
	// a trust decision. Only campaigns are leased: every other job kind
	// runs on the coordinator.
	Enabled bool
	// LeaseBatches is the number of sim.Lanes-wide batches per lease
	// handed to a worker. Default 8; without Enabled it does not apply.
	LeaseBatches int
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before it is reassigned. Default 15s. Workers heartbeat every
	// LeaseTTL/3, and an idle worker's acquire parks at most that long.
	LeaseTTL time.Duration
	// MaxAttempts bounds grant attempts per batch range before the whole
	// job fails. Default 8.
	MaxAttempts int
}

func (c DistConfig) withDefaults() DistConfig {
	if c.LeaseBatches <= 0 {
		c.LeaseBatches = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	return c
}

// Sentinel errors of the distributed protocol.
var (
	// ErrUnknownWorker is returned for worker IDs the coordinator has
	// never seen (or has forgotten across a restart); workers re-join.
	ErrUnknownWorker = errors.New("service: unknown worker")
	// ErrUnknownLease is returned for lease IDs that no longer exist
	// (job finished, canceled, or the coordinator restarted).
	ErrUnknownLease = errors.New("service: unknown lease")
	// ErrLeaseConflict is returned when a worker reports on a lease it no
	// longer owns — it expired and was reassigned. The worker discards
	// its partial work; determinism makes the redo bit-identical.
	ErrLeaseConflict = errors.New("service: lease owned by another worker")
)

// WorkerState is a registered worker's lifecycle position.
type WorkerState string

// Worker states. A lost worker that heartbeats again is revived; a worker
// that left deregistered cleanly and does not come back under that ID.
const (
	WorkerActive WorkerState = "active"
	WorkerLost   WorkerState = "lost"
	WorkerLeft   WorkerState = "left"
)

// LeaseState is a lease's lifecycle position.
type LeaseState string

// Lease states. A completed lease is merged and dropped, so listings only
// ever show pending and active ones.
const (
	LeasePending LeaseState = "pending"
	LeaseActive  LeaseState = "active"
)

// WorkerInfo is the wire view of a registered worker (GET /v1/workers).
// Active counts the leases it holds in the lease table.
type WorkerInfo struct {
	ID        string      `json:"id"`
	Name      string      `json:"name,omitempty"`
	State     WorkerState `json:"state"`
	Active    int         `json:"active_leases"`
	Completed int         `json:"completed_leases"`
	Joined    time.Time   `json:"joined"`
	LastSeen  time.Time   `json:"last_seen"`
}

// LeaseInfo is the wire view of a live lease (GET /v1/leases).
type LeaseInfo struct {
	ID          string     `json:"id"`
	JobID       string     `json:"job_id"`
	State       LeaseState `json:"state"`
	Worker      string     `json:"worker,omitempty"`
	FirstBatch  int        `json:"first_batch"`
	LastBatch   int        `json:"last_batch"`
	DoneBatches int        `json:"done_batches"`
	Attempt     int        `json:"attempt"`
	Expires     *time.Time `json:"expires,omitempty"`
	NotBefore   *time.Time `json:"not_before,omitempty"`
}

// JoinRequest registers a worker (POST /v1/workers/join).
type JoinRequest struct {
	Name string `json:"name,omitempty"`
}

// JoinResponse hands the worker its identity and its heartbeat interval,
// LeaseTTL/3, which also bounds how long an acquire parks.
type JoinResponse struct {
	WorkerID    string `json:"worker_id"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// HeartbeatRequest renews a worker's leases; Leases carries each lease's
// completed-batch count, which the lease listing shows.
type HeartbeatRequest struct {
	Leases map[string]int `json:"leases,omitempty"`
}

// HeartbeatResponse tells the worker which of its reported leases it no
// longer owns (abort those executions). A draining coordinator answers
// acquires with 503 draining instead.
type HeartbeatResponse struct {
	Drop []string `json:"drop,omitempty"`
}

// AcquireRequest asks for a lease (POST /v1/leases/acquire).
type AcquireRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseGrant is a granted lease: the full campaign request plus the batch
// range this worker executes. The worker builds the identical campaign
// and runs ExecuteBatchesFunc over [FirstBatch, LastBatch).
type LeaseGrant struct {
	LeaseID    string       `json:"lease_id"`
	JobID      string       `json:"job_id"`
	Design     DesignSpec   `json:"design"`
	Campaign   CampaignSpec `json:"campaign"`
	FirstBatch int          `json:"first_batch"`
	LastBatch  int          `json:"last_batch"`
}

// LeaseReport is a worker's report on one lease (POST
// /v1/leases/{id}/complete, /fail).
type LeaseReport struct {
	WorkerID string `json:"worker_id"`
	// Batches carries a completion's tallies: exactly one per batch of the
	// lease's range, in batch order. The coordinator checks each, stores
	// each under its content address and merges their sum.
	Batches []CampaignResult `json:"batches,omitempty"`
	// Error says why a failed lease failed.
	Error string `json:"error,omitempty"`
}

// lease is one batch range of one registered campaign. A lease claimed
// in-process is active with no worker and no deadline.
type lease struct {
	n       int // creation number; the wire ID is "l" and n, zero-padded
	jobID   string
	first   int
	last    int
	state   LeaseState
	worker  string
	attempt int // grant attempts so far

	expires   time.Time // active: reassignment deadline
	notBefore time.Time // pending: backoff gate after a failure
	done      int       // completed batches, as the worker's heartbeats report
}

func (l *lease) id() string { return fmt.Sprintf("l%06d", l.n) }

// workerEntry is one registered worker.
type workerEntry struct {
	id        string
	name      string
	state     WorkerState
	completed int
	joined    time.Time
	lastSeen  time.Time
}

// completedRange is a merged-but-not-yet-contiguous range of batches:
// either executed (a worker's lease or an in-process claim) or, replayed,
// served from the result store at register time.
type completedRange struct {
	last     int
	counts   CampaignResult
	replayed bool
}

// distProgress is a point-in-time view of a registered campaign's merged
// state.
type distProgress struct {
	cursor int            // batches [0, cursor) are merged
	acc    CampaignResult // their summed tally
	// replayedRuns, replayedBatches and simulatedBatches split the batches
	// merged since register between store replay and execution.
	replayedRuns, replayedBatches, simulatedBatches int

	done   bool   // every batch is merged; set by snapshot
	failed string // why the job failed, once a lease exhausted its attempts
}

// distJob is the lease table's state of one registered campaign.
type distJob struct {
	// t is the campaign: its request (what grants ship), its batch layout
	// and its store address.
	t            *campaignTask
	distProgress                        // the merged state snapshot copies
	completed    map[int]completedRange // firstBatch -> out-of-order results
}

// foldLocked advances the merge cursor over every contiguous completed
// range, accumulating counts and the replay split in batch order — the
// ordered-prefix merge that keeps every result bit-identical to an
// uninterrupted run. Callers hold c.mu.
func (dj *distJob) foldLocked() (advanced bool) {
	for {
		r, ok := dj.completed[dj.cursor]
		if !ok {
			return advanced
		}
		delete(dj.completed, dj.cursor)
		dj.acc.Accumulate(r.counts)
		if r.replayed {
			dj.replayedRuns += r.counts.Total
			dj.replayedBatches += r.last - dj.cursor
		} else {
			dj.simulatedBatches += r.last - dj.cursor
		}
		dj.cursor = r.last
		advanced = true
	}
}

// coordinator owns the worker registry and the lease table; every Service
// has one. It has its own mutex — never held together with Service.mu — and
// wakes everything that waits on the table, job goroutines and parked
// acquires alike, through one change channel.
type coordinator struct {
	cfg     DistConfig
	metrics *Metrics     // set by Service.New after newMetrics
	results *store.Store // set by Service.New; nil-safe when absent

	mu      sync.Mutex
	workers map[string]*workerEntry
	jobs    map[string]*distJob
	// order is the lease table in creation order, which is lease-ID order:
	// grants and claims scan it, and leaseIndexLocked searches it.
	order      []*lease
	nextWorker int
	nextLease  int
	jitter     *rng.Xoshiro
	draining   bool
	// change is closed and replaced whenever a waiter may act: register, a
	// merge advance, a release, every sweep and drain. A waiter takes it
	// before it reads the state it waits on, so it misses no change.
	change chan struct{}
}

func newCoordinator(cfg DistConfig) *coordinator {
	return &coordinator{
		cfg:     cfg.withDefaults(),
		metrics: &Metrics{}, // nil-safe no-op instruments until the Service wires its own
		workers: make(map[string]*workerEntry),
		jobs:    make(map[string]*distJob),
		jitter:  rng.NewXoshiro(uint64(time.Now().UnixNano())),
		change:  make(chan struct{}),
	}
}

// changed returns the channel the table's next change closes.
func (c *coordinator) changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.change
}

// signalLocked wakes every waiter on the table. Callers hold c.mu.
func (c *coordinator) signalLocked() {
	close(c.change)
	c.change = make(chan struct{})
}

// register enters a campaign in the lease table, starting from the
// checkpointed batch cursor start with acc the tally of the batches before
// it. It is the one place a job reads the result store: every remaining
// batch is looked up once, cached batches become pre-completed ranges
// merged through the same ordered-prefix fold as executed ones, and only
// the uncached gaps are cut into leases of cfg.LeaseBatches batches — a
// fully cached resubmission leases nothing.
func (c *coordinator) register(t *campaignTask, start int, acc CampaignResult) *distJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	dj := &distJob{
		t:            t,
		distProgress: distProgress{cursor: start, acc: acc},
		completed:    make(map[int]completedRange),
	}
	c.jobs[t.id] = dj
	var gap *lease // the lease the current run of uncached batches fills
	hits := -1     // first batch of the current run of cached batches
	for b := start; b < t.camp.NumBatches(); b++ {
		var cnt store.Counts
		hit := false
		if t.useStore {
			cnt, hit = c.results.GetBatch(store.BatchKey{Campaign: t.digest, Batch: b, Runs: t.camp.BatchRuns(b)})
		}
		if hit {
			if hits < 0 {
				hits, gap = b, nil
			}
			r := dj.completed[hits]
			r.last, r.replayed = b+1, true
			r.counts.Accumulate(CampaignResult(cnt))
			dj.completed[hits] = r
			fault.CountReplay(1, fault.Result{Total: cnt.Total})
			continue
		}
		hits = -1
		if gap == nil || gap.last-gap.first == c.cfg.LeaseBatches {
			gap = &lease{n: c.nextLease, jobID: t.id, first: b, state: LeasePending}
			c.nextLease++
			c.order = append(c.order, gap)
		}
		gap.last = b + 1
	}
	dj.foldLocked()
	c.signalLocked()
	return dj
}

// unregister drops a job and all of its leases (completion, cancel,
// drain). Workers still executing them learn via conflict responses.
func (c *coordinator) unregister(jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.jobs, jobID)
	c.dropJobLeasesLocked(jobID)
}

func (c *coordinator) dropJobLeasesLocked(jobID string) {
	c.order = slices.DeleteFunc(c.order, func(l *lease) bool { return l.jobID == jobID })
}

// leaseIndexLocked finds the live lease numbered n in c.order, which is
// sorted by creation number.
func (c *coordinator) leaseIndexLocked(n int) (int, bool) {
	return slices.BinarySearchFunc(c.order, n, func(l *lease, n int) int { return cmp.Compare(l.n, n) })
}

// leaseLocked resolves a wire lease ID to the live lease, or nil.
func (c *coordinator) leaseLocked(id string) *lease {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "l"))
	if i, ok := c.leaseIndexLocked(n); err == nil && ok && c.order[i].id() == id {
		return c.order[i]
	}
	return nil
}

// snapshot reads a job's merged state for the job goroutine.
func (c *coordinator) snapshot(jobID string) distProgress {
	c.mu.Lock()
	defer c.mu.Unlock()
	dj, ok := c.jobs[jobID]
	if !ok {
		return distProgress{}
	}
	p := dj.distProgress
	p.done = p.cursor == dj.t.camp.NumBatches()
	return p
}

// join registers a worker and hands back its identity plus its heartbeat
// interval.
func (c *coordinator) join(req JoinRequest) JoinResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now().UTC()
	w := &workerEntry{
		id:       fmt.Sprintf("w%06d", c.nextWorker),
		name:     req.Name,
		state:    WorkerActive,
		joined:   now,
		lastSeen: now,
	}
	c.nextWorker++
	c.workers[w.id] = w
	c.metrics.WorkersJoined.Inc()
	return JoinResponse{WorkerID: w.id, HeartbeatMS: c.heartbeatEvery().Milliseconds()}
}

// heartbeatEvery is the interval workers heartbeat at, a third of the lease
// TTL; it also bounds how long an acquire parks.
func (c *coordinator) heartbeatEvery() time.Duration { return c.cfg.LeaseTTL / 3 }

// touchLocked revives a worker on any authenticated traffic. Left workers
// stay left: their ID is retired.
func (c *coordinator) touchLocked(id string) (*workerEntry, error) {
	w, ok := c.workers[id]
	if !ok || w.state == WorkerLeft {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = time.Now().UTC()
	w.state = WorkerActive
	return w, nil
}

// heartbeat renews every active lease the worker holds and reports back
// the reported leases it no longer owns.
func (c *coordinator) heartbeat(id string, req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, err := c.touchLocked(id)
	if err != nil {
		return HeartbeatResponse{}, err
	}
	c.metrics.Heartbeats.Inc()
	deadline := time.Now().Add(c.cfg.LeaseTTL)
	var resp HeartbeatResponse
	for leaseID, done := range req.Leases {
		l := c.leaseLocked(leaseID)
		if l == nil || l.state != LeaseActive || l.worker != w.id {
			resp.Drop = append(resp.Drop, leaseID)
			continue
		}
		l.expires = deadline
		if done > l.done {
			l.done = done
		}
	}
	return resp, nil
}

// leave deregisters a worker cleanly; its active leases go straight back
// to pending with no backoff and no attempt charge — a drained worker is
// not the batch range's fault.
func (c *coordinator) leave(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return ErrUnknownWorker
	}
	w.state = WorkerLeft
	now := time.Now()
	for _, l := range c.order {
		if l.state == LeaseActive && l.worker == id {
			c.releaseLocked(l, now, false)
		}
	}
	return nil
}

// acquire grants the lowest pending batch range whose backoff gate has
// passed. Granting in range order keeps the merge cursor advancing
// steadily, so checkpoints stay fresh.
func (c *coordinator) acquire(workerID string) (*LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, ErrDraining
	}
	w, err := c.touchLocked(workerID)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	for _, l := range c.order {
		if l.state != LeasePending || now.Before(l.notBefore) {
			continue
		}
		dj := c.jobs[l.jobID]
		if dj == nil || dj.failed != "" {
			continue
		}
		l.state = LeaseActive
		l.worker = w.id
		l.attempt++
		l.expires = now.Add(c.cfg.LeaseTTL)
		l.done = 0
		c.metrics.LeasesGranted.Inc()
		if l.attempt > 1 {
			c.metrics.LeasesReassigned.Inc()
		}
		return &LeaseGrant{
			LeaseID:    l.id(),
			JobID:      l.jobID,
			Design:     dj.t.req.Design,
			Campaign:   *dj.t.req.Campaign,
			FirstBatch: l.first,
			LastBatch:  l.last,
		}, nil
	}
	return nil, nil
}

// acquireWait is acquire parked on the table's change channel: it returns
// as soon as a scan grants a lease or fails, and nil once ctx ends or one
// heartbeat interval passes — the bound that keeps a server shutdown, which
// waits for in-flight handlers, from waiting on an idle worker for longer.
func (c *coordinator) acquireWait(ctx context.Context, workerID string) (*LeaseGrant, error) {
	ctx, cancel := context.WithTimeout(ctx, c.heartbeatEvery())
	defer cancel()
	for {
		changed := c.changed()
		if g, err := c.acquire(workerID); g != nil || err != nil {
			return g, err
		}
		select {
		case <-ctx.Done():
			return nil, nil
		case <-changed:
		}
	}
}

// ownedLocked resolves a lease report to the lease iff the worker still
// owns it.
func (c *coordinator) ownedLocked(leaseID, workerID string) (*lease, error) {
	l := c.leaseLocked(leaseID)
	if l == nil {
		return nil, ErrUnknownLease
	}
	if l.state != LeaseActive || l.worker != workerID {
		return nil, ErrLeaseConflict
	}
	return l, nil
}

// complete finalises a worker's lease through the one merge. A report that
// cannot be the range's tally is rejected before anything changes; the
// worker then fails the lease back for a charged retry.
func (c *coordinator) complete(leaseID string, rep LeaseReport) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, err := c.touchLocked(rep.WorkerID)
	if err != nil {
		return err
	}
	l, err := c.ownedLocked(leaseID, rep.WorkerID)
	if err != nil {
		return err
	}
	dj := c.jobs[l.jobID]
	if dj == nil {
		return ErrUnknownLease
	}
	if err := c.mergeLocked(dj, l, l.last, rep.Batches); err != nil {
		return err
	}
	w.completed++
	c.metrics.LeasesCompleted.Inc()
	return nil
}

// claim hands the job's own goroutine its lowest pending lease, or nil once
// none is left. A coordinator never simulates, so there it is always nil.
func (c *coordinator) claim(dj *distJob) *lease {
	if c.cfg.Enabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.order {
		if l.state == LeasePending && l.jobID == dj.t.id {
			l.state = LeaseActive
			return l
		}
	}
	return nil
}

// runClaim runs a claimed lease in one ExecuteBatchesFunc call and merges
// the batches that finished: all of them, or on cancel or failure the
// completed prefix, which a drain therefore keeps.
func (c *coordinator) runClaim(ctx context.Context, dj *distJob, l *lease) error {
	var batches []CampaignResult
	_, err := dj.t.camp.ExecuteBatchesFunc(ctx, l.first, l.last, nil, func(_ int, r fault.Result) {
		batches = append(batches, NewCampaignResult(r))
	})
	if len(batches) > 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if mErr := c.mergeLocked(dj, l, l.first+len(batches), batches); err == nil {
			err = mErr
		}
	}
	return err
}

// mergeLocked is the one way batch tallies enter a campaign, shared by a
// worker's completion and the job's own claims: it checks batches as the
// tallies of l's batches [l.first, last), stores each under its content
// address and folds their sum in batch order. Nothing changes when the
// check fails. A finished lease leaves the table; a claim cut short keeps
// its unfinished tail until the job unregisters. Callers hold c.mu.
func (c *coordinator) mergeLocked(dj *distJob, l *lease, last int, batches []CampaignResult) error {
	counts, err := checkCompletion(dj.t.camp, l.first, last, batches)
	if err != nil {
		return fmt.Errorf("lease %s: %w", l.id(), err)
	}
	// PutBatch itself rejects tallies that contradict an existing record.
	if dj.t.useStore {
		for i, b := range batches {
			_ = c.results.PutBatch(store.BatchKey{Campaign: dj.t.digest, Batch: l.first + i, Runs: b.Total}, store.Counts(b))
		}
	}
	dj.completed[l.first] = completedRange{last: last, counts: counts}
	if last == l.last {
		i, _ := c.leaseIndexLocked(l.n)
		c.order = slices.Delete(c.order, i, i+1)
	} else {
		l.first = last
	}
	if dj.foldLocked() {
		c.signalLocked()
	}
	return nil
}

// checkCompletion returns the tally of camp's batch range [first, last)
// that a completion's per-batch tallies sum to, or an error when they
// cannot be that range's tallies: anything but one tally per batch, each
// of exactly that batch's runs with non-negative outcome counts that
// partition them. A batch's tally is a pure function of the campaign, so an
// honest worker never fails these checks, and a report that does would
// change a result the determinism contract says is bit-identical.
func checkCompletion(camp *fault.Campaign, first, last int, batches []CampaignResult) (CampaignResult, error) {
	if len(batches) != last-first {
		return CampaignResult{}, fmt.Errorf("report carries %d batch tallies for %d batches", len(batches), last-first)
	}
	var sum CampaignResult
	for i, bt := range batches {
		if err := checkTally(bt, camp.BatchRuns(first+i)); err != nil {
			return CampaignResult{}, fmt.Errorf("report batch %d: %w", first+i, err)
		}
		sum.Accumulate(bt)
	}
	return sum, nil
}

// checkTally requires a tally of exactly runs runs whose outcome counts are
// non-negative and sum to its total.
func checkTally(c CampaignResult, runs int) error {
	if c.Total != runs {
		return fmt.Errorf("total %d, want %d runs", c.Total, runs)
	}
	if c.Ineffective < 0 || c.Detected < 0 || c.Effective < 0 || c.Corrected < 0 ||
		c.Ineffective+c.Detected+c.Effective+c.Corrected != c.Total {
		return fmt.Errorf("outcome counts %+v do not partition %d runs", c, c.Total)
	}
	return nil
}

// fail returns a lease to the pending set with jittered backoff; past
// MaxAttempts the whole job fails (every worker is hitting the same
// deterministic error).
func (c *coordinator) fail(leaseID string, rep LeaseReport) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.touchLocked(rep.WorkerID); err != nil {
		return err
	}
	l, err := c.ownedLocked(leaseID, rep.WorkerID)
	if err != nil {
		return err
	}
	c.requeueLocked(l, time.Now(), rep.Error)
	return nil
}

// releaseLocked puts an active lease back in the pending set. charged
// requeues count toward MaxAttempts and get a backoff gate; a clean
// release (worker leave) keeps the attempt and is grantable immediately.
func (c *coordinator) releaseLocked(l *lease, now time.Time, charged bool) {
	l.state = LeasePending
	l.worker = ""
	l.done = 0
	l.expires = time.Time{}
	if charged {
		l.notBefore = now.Add(c.backoffLocked(l.attempt))
	} else {
		l.attempt-- // the re-grant is not a new attempt
		l.notBefore = time.Time{}
	}
	c.signalLocked()
}

// requeueLocked is releaseLocked plus the attempt-budget check. The lease
// goes back to pending either way; once the job is marked failed, acquire
// never grants its leases again. The release's signal wakes the job
// goroutine, which reads the failure once c.mu is released.
func (c *coordinator) requeueLocked(l *lease, now time.Time, cause string) {
	attempt := l.attempt
	c.releaseLocked(l, now, true)
	if attempt >= c.cfg.MaxAttempts {
		if dj := c.jobs[l.jobID]; dj != nil && dj.failed == "" {
			dj.failed = fmt.Sprintf("lease %s [%d,%d) failed after %d attempts: %s",
				l.id(), l.first, l.last, attempt, cause)
		}
	}
}

// backoffLocked computes the jittered re-grant delay for the given attempt
// count: (TTL/4) << (attempt-1), capped at 4×TTL, then jittered into
// [d/2, d) so a fleet of failures does not re-dispatch in lockstep.
// Callers hold c.mu (the jitter source is not goroutine-safe).
func (c *coordinator) backoffLocked(attempt int) time.Duration {
	base := c.cfg.LeaseTTL / 4
	if base < 10*time.Millisecond {
		base = 10 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < 4*c.cfg.LeaseTTL; i++ {
		d *= 2
	}
	if limit := 4 * c.cfg.LeaseTTL; d > limit {
		d = limit
	}
	half := int64(d / 2)
	return time.Duration(half + int64(c.jitter.Uint64()%uint64(half+1)))
}

// sweep expires overdue worker leases and marks silent workers lost.
// Claims have no worker and never expire. Called by the janitor goroutine;
// the interval is a fraction of the lease TTL. Every sweep signals a change,
// because backoff gates pass with time: a parked acquire rescans, and a
// backed-off range is offered within one interval of its gate.
func (c *coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lostDeadline := now.Add(-2 * c.cfg.LeaseTTL)
	for _, w := range c.workers {
		if w.state == WorkerActive && w.lastSeen.Before(lostDeadline) {
			w.state = WorkerLost
		}
	}
	for _, l := range c.order {
		if l.state != LeaseActive || l.worker == "" || now.Before(l.expires) {
			continue
		}
		c.metrics.LeasesExpired.Inc()
		c.requeueLocked(l, now, "lease expired (worker lost)")
	}
	c.signalLocked()
}

// janitor drives sweep until the service's base context dies.
func (c *coordinator) janitor(done <-chan struct{}) {
	interval := c.cfg.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-t.C:
			c.sweep(now)
		}
	}
}

// setDraining flips the intake off: every acquire, parked ones included,
// answers ErrDraining from now on.
func (c *coordinator) setDraining() {
	c.mu.Lock()
	c.draining = true
	c.signalLocked()
	c.mu.Unlock()
}

// workerCount reports live (non-left) workers.
func (c *coordinator) workerCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, w := range c.workers {
		if w.state == WorkerActive {
			n++
		}
	}
	return n
}

// activeLeaseCount reports active leases: granted to a worker or claimed
// in-process.
func (c *coordinator) activeLeaseCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, l := range c.order {
		if l.state == LeaseActive {
			n++
		}
	}
	return n
}

// workersInfo lists the registry for GET /v1/workers, counting each
// worker's active leases from the lease table.
func (c *coordinator) workersInfo() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	active := make(map[string]int)
	for _, l := range c.order {
		if l.state == LeaseActive {
			active[l.worker]++
		}
	}
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			ID:        w.id,
			Name:      w.name,
			State:     w.state,
			Active:    active[w.id],
			Completed: w.completed,
			Joined:    w.joined,
			LastSeen:  w.lastSeen,
		})
	}
	slices.SortFunc(out, func(a, b WorkerInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// leasesInfo lists live leases in ID order for GET /v1/leases; a claim is
// active with an empty worker.
func (c *coordinator) leasesInfo() []LeaseInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LeaseInfo, 0, len(c.order))
	for _, l := range c.order {
		li := LeaseInfo{
			ID:          l.id(),
			JobID:       l.jobID,
			State:       l.state,
			Worker:      l.worker,
			FirstBatch:  l.first,
			LastBatch:   l.last,
			DoneBatches: l.done,
			Attempt:     l.attempt,
		}
		if !l.expires.IsZero() {
			e := l.expires
			li.Expires = &e
		}
		if !l.notBefore.IsZero() {
			nb := l.notBefore
			li.NotBefore = &nb
		}
		out = append(out, li)
	}
	return out
}
