package client

// Worker is the pull side of the distributed campaign fabric: it joins a
// coordinator, heartbeats, and executes batch-range leases through
// fault.Campaign.ExecuteBatchesFunc over designs from its own design cache.
// Because every batch derives its randomness from (seed, batch), a worker
// is stateless and expendable — a killed worker's lease simply expires and
// another worker recomputes the identical counts, so the coordinator's
// merged result never depends on which process ran what.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
)

// retryDelay paces a worker's retries after an error: a failed join, a
// draining coordinator or an unreachable one. An idle worker does not
// wait on a clock; its acquire parks on the coordinator until a lease is
// grantable.
const retryDelay = 200 * time.Millisecond

// WorkerConfig parameterises a campaign worker.
type WorkerConfig struct {
	// Coordinator is the coordinator daemon's base URL.
	Coordinator string
	// Name labels the worker in /v1/workers listings.
	Name string
	// SimWorkers bounds the goroutines of one lease execution; 0 lets the
	// engine default (GOMAXPROCS). Pure execution policy: reported counts
	// are bit-identical at every setting.
	SimWorkers int
	// OnLease, when set, runs synchronously after every successful
	// acquire, before execution starts — the hook deterministic tests use
	// to kill a worker at a known point.
	OnLease func(service.LeaseGrant)
}

// Worker runs the lease-pull loop against one coordinator.
type Worker struct {
	cfg    WorkerConfig
	client *Client
	// designs builds each lease's design once: a job's leases all share
	// its design spec.
	designs *service.DesignCache

	abrupt atomic.Bool        // Kill() vs graceful context cancellation
	kill   context.CancelFunc // set once Run starts
	killMu sync.Mutex

	mu     sync.Mutex
	id     string
	leases map[string]int                // leaseID -> done batches (heartbeat payload)
	abort  map[string]context.CancelFunc // leaseID -> execution cancel
}

// NewWorker returns an unstarted worker; Run drives it.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{
		cfg:     cfg,
		client:  New(cfg.Coordinator),
		designs: service.NewDesignCache(),
		leases:  make(map[string]int),
		abort:   make(map[string]context.CancelFunc),
	}
}

// ID returns the coordinator-assigned worker ID ("" before the first
// successful join).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Kill stops the worker abruptly: no lease fail reports, no leave — the
// process just goes silent, exactly like a crashed machine. Its leases
// stay active on the coordinator until the TTL janitor expires and
// reassigns them. Tests use this to exercise the recovery path.
func (w *Worker) Kill() {
	w.abrupt.Store(true)
	w.killMu.Lock()
	if w.kill != nil {
		w.kill()
	}
	w.killMu.Unlock()
}

// Run joins the coordinator and pulls leases until ctx is canceled (a
// graceful stop: the current lease is failed back for immediate
// reassignment and the worker leaves) or Kill is called (abrupt death).
// It returns nil on either form of shutdown.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.killMu.Lock()
	w.kill = cancel
	w.killMu.Unlock()

	join, err := w.join(ctx)
	if err != nil {
		return err
	}

	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(ctx, hbStop, time.Duration(join.HeartbeatMS)*time.Millisecond)
	}()

	for ctx.Err() == nil {
		grant, err := w.client.AcquireLease(ctx, w.ID())
		switch {
		case err == nil && grant != nil:
			w.execute(ctx, *grant)
		case err == nil:
			// The acquire parked a heartbeat interval with nothing to
			// grant; ask again.
		case errors.Is(err, ErrNotFound):
			// The coordinator forgot us (restart); re-join under a new ID.
			if _, err = w.join(ctx); err != nil {
				close(hbStop)
				hbDone.Wait()
				return err
			}
		default:
			// Coordinator draining or unreachable.
			select {
			case <-ctx.Done():
			case <-time.After(retryDelay):
			}
		}
	}

	close(hbStop)
	hbDone.Wait()
	if !w.abrupt.Load() {
		// Graceful: hand leases back for immediate reassignment.
		leaveCtx, leaveCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer leaveCancel()
		_ = w.client.LeaveWorker(leaveCtx, w.ID())
	}
	return nil
}

// join registers with the coordinator, retrying until ctx dies.
func (w *Worker) join(ctx context.Context) (service.JoinResponse, error) {
	req := service.JoinRequest{Name: w.cfg.Name}
	for {
		resp, err := w.client.JoinWorker(ctx, req)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			return resp, nil
		}
		if ctx.Err() != nil {
			return service.JoinResponse{}, ctx.Err()
		}
		select {
		case <-ctx.Done():
			return service.JoinResponse{}, ctx.Err()
		case <-time.After(retryDelay):
		}
	}
}

// heartbeatLoop renews the worker's leases; leases the coordinator reports
// as dropped (expired and reassigned) have their executions aborted.
func (w *Worker) heartbeatLoop(ctx context.Context, stop <-chan struct{}, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-t.C:
		}
		w.mu.Lock()
		id := w.id
		held := make(map[string]int, len(w.leases))
		for k, v := range w.leases {
			held[k] = v
		}
		w.mu.Unlock()
		resp, err := w.client.WorkerHeartbeat(ctx, id, service.HeartbeatRequest{Leases: held})
		if err != nil {
			continue // transient; acquire handles re-join on 404
		}
		for _, leaseID := range resp.Drop {
			w.mu.Lock()
			if cancel := w.abort[leaseID]; cancel != nil {
				cancel()
			}
			w.mu.Unlock()
		}
	}
}

// track registers a running lease for heartbeats and abort routing.
func (w *Worker) track(leaseID string, cancel context.CancelFunc) {
	w.mu.Lock()
	w.leases[leaseID] = 0
	w.abort[leaseID] = cancel
	w.mu.Unlock()
}

func (w *Worker) untrack(leaseID string) {
	w.mu.Lock()
	delete(w.leases, leaseID)
	delete(w.abort, leaseID)
	w.mu.Unlock()
}

func (w *Worker) setDone(leaseID string, done int) {
	w.mu.Lock()
	if _, ok := w.leases[leaseID]; ok {
		w.leases[leaseID] = done
	}
	w.mu.Unlock()
}

// execute runs one lease in a single pass over its batch range, keeping
// each batch's tally for the completion report and counting it into the
// next heartbeat. Error handling mirrors the coordinator's state machine: a
// killed worker reports nothing (the TTL expires the lease), a gracefully
// stopped worker fails the lease back immediately, and a conflict response
// means the lease was reassigned — the work is discarded, which is safe
// because the replacement computes identical counts.
func (w *Worker) execute(ctx context.Context, grant service.LeaseGrant) {
	if w.cfg.OnLease != nil {
		w.cfg.OnLease(grant)
	}
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.track(grant.LeaseID, cancel)
	defer w.untrack(grant.LeaseID)
	if leaseCtx.Err() != nil {
		return // killed in the OnLease hook: silent death
	}

	id := w.ID()
	fail := func(ctx context.Context, cause string) {
		_ = w.client.FailLease(ctx, grant.LeaseID, service.LeaseReport{WorkerID: id, Error: cause})
	}
	camp, err := w.designs.Campaign(grant.Design, &grant.Campaign, service.EngineDefaults{Workers: w.cfg.SimWorkers})
	if err != nil {
		fail(ctx, err.Error())
		return
	}
	rep := service.LeaseReport{WorkerID: id}
	_, err = camp.ExecuteBatchesFunc(leaseCtx, grant.FirstBatch, grant.LastBatch, nil, func(_ int, r fault.Result) {
		rep.Batches = append(rep.Batches, service.NewCampaignResult(r))
		w.setDone(grant.LeaseID, len(rep.Batches))
	})
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if w.abrupt.Load() {
			return // crashed: say nothing, let the TTL reassign
		}
		// Graceful stop or coordinator-ordered drop: hand the range back
		// for immediate retry elsewhere.
		failCtx, failCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer failCancel()
		fail(failCtx, "worker shutting down")
		return
	case err != nil:
		fail(ctx, err.Error())
		return
	}
	if err := w.client.CompleteLease(leaseCtx, grant.LeaseID, rep); err != nil &&
		!errors.Is(err, ErrConflict) && !errors.Is(err, ErrNotFound) && !w.abrupt.Load() && ctx.Err() == nil {
		// Transient or rejected completion: fail the lease back so the
		// range is retried rather than left to time out.
		fail(ctx, "complete failed: "+err.Error())
	}
}
