package service_test

// End-to-end acceptance of the distributed campaign fabric: a coordinator
// and two in-process workers driven over real HTTP, one worker killed
// mid-campaign, and the merged result checked bit-for-bit against a direct
// single-node fault.Campaign execution. This is the paper's determinism
// argument made executable: batch b derives all randomness from (seed, b),
// so reassigning a dead worker's lease must not change a single count.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
)

// distDaemonConfig tunes the coordinator for fast failure detection: short
// leases (workers heartbeat every TTL/3), one batch per lease so a 5-batch
// campaign spreads across many grants.
func distDaemonConfig() service.Config {
	return service.Config{
		Workers:             1,
		CheckpointEveryRuns: 64,
		Dist: service.DistConfig{
			Enabled:      true,
			LeaseBatches: 1,
			LeaseTTL:     300 * time.Millisecond,
			MaxAttempts:  8,
		},
	}
}

// TestE2EDistributedKillWorkerBitIdentical runs every entropy variant on a
// coordinator with two workers, kills the first worker the moment it is
// granted a lease, and requires the merged distributed result to equal the
// single-node library run bit for bit even though one lease expired and was
// reassigned.
func TestE2EDistributedKillWorkerBitIdentical(t *testing.T) {
	for _, entropy := range []string{"prime", "per-round", "per-sbox"} {
		t.Run(entropy, func(t *testing.T) {
			_, c := startDaemon(t, distDaemonConfig())
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
			defer cancel()

			st, err := c.Submit(ctx, e2eRequest(e2eRuns, entropy))
			if err != nil {
				t.Fatal(err)
			}

			// Worker A dies abruptly on its first grant: Kill simulates a
			// crash, so the lease is never reported back and must expire.
			leasedA := make(chan service.LeaseGrant, 1)
			var wa *client.Worker
			wa = client.NewWorker(client.WorkerConfig{
				Coordinator: c.BaseURL,
				Name:        "victim",
				OnLease: func(g service.LeaseGrant) {
					wa.Kill()
					select {
					case leasedA <- g:
					default:
					}
				},
			})
			runDone := make(chan error, 2)
			go func() { runDone <- wa.Run(ctx) }()
			select {
			case <-leasedA:
			case <-ctx.Done():
				t.Fatal("worker A was never granted a lease")
			}

			// Worker B joins only after A is dead while holding a lease, so
			// at least one reassignment is guaranteed.
			wb := client.NewWorker(client.WorkerConfig{
				Coordinator: c.BaseURL,
				Name:        "survivor",
			})
			go func() { runDone <- wb.Run(ctx) }()

			final, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if terminal, outcome := client.Done(final); !terminal || outcome != nil {
				t.Fatalf("job ended %q: %v (%s)", final.State, outcome, final.Error)
			}
			if final.Result == nil || final.Result.Campaign == nil {
				t.Fatal("done job has no campaign result")
			}
			want := directResult(t, e2eRuns, entropy)
			if *final.Result.Campaign != want {
				t.Fatalf("distributed result diverged after worker kill:\n got  %+v\n want %+v",
					*final.Result.Campaign, want)
			}

			// The failure really happened: a lease expired and was
			// re-granted, both workers registered, no leases survive.
			m, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if m["leases_reassigned_total"] < 1 || m["leases_expired_total"] < 1 {
				t.Fatalf("no reassignment recorded: %v", m)
			}
			if m["workers_joined_total"] != 2 || m["leases_granted_total"] < 6 {
				t.Fatalf("unexpected fleet counters: %v", m)
			}
			workers, err := c.Workers(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(workers) != 2 {
				t.Fatalf("worker registry %+v", workers)
			}
			leases, err := c.Leases(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(leases) != 0 {
				t.Fatalf("leases survive a finished job: %+v", leases)
			}

			cancel()
			for i := 0; i < 2; i++ {
				select {
				case <-runDone:
				case <-time.After(10 * time.Second):
					t.Fatal("worker did not stop")
				}
			}
		})
	}
}

// TestE2EDistributedGracefulWorkerExit drains one worker mid-campaign via
// context cancellation: its lease is failed back for immediate reassignment
// (no TTL wait), the worker leaves the registry, and the result still
// matches the single-node run.
func TestE2EDistributedGracefulWorkerExit(t *testing.T) {
	_, c := startDaemon(t, distDaemonConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	st, err := c.Submit(ctx, e2eRequest(e2eRuns, "prime"))
	if err != nil {
		t.Fatal(err)
	}

	actx, astop := context.WithCancel(ctx)
	defer astop()
	leasedA := make(chan struct{}, 1)
	wa := client.NewWorker(client.WorkerConfig{
		Coordinator: c.BaseURL,
		Name:        "drained",
		OnLease: func(service.LeaseGrant) {
			astop()
			select {
			case leasedA <- struct{}{}:
			default:
			}
		},
	})
	runDone := make(chan error, 2)
	go func() { runDone <- wa.Run(actx) }()
	select {
	case <-leasedA:
	case <-ctx.Done():
		t.Fatal("worker A was never granted a lease")
	}

	wb := client.NewWorker(client.WorkerConfig{
		Coordinator: c.BaseURL,
		Name:        "steady",
	})
	go func() { runDone <- wb.Run(ctx) }()

	final, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if terminal, outcome := client.Done(final); !terminal || outcome != nil {
		t.Fatalf("job ended %q: %v (%s)", final.State, outcome, final.Error)
	}
	want := directResult(t, e2eRuns, "prime")
	if *final.Result.Campaign != want {
		t.Fatalf("result diverged after graceful exit:\n got  %+v\n want %+v",
			*final.Result.Campaign, want)
	}

	// A drained worker leaves cleanly: it must end up "left", not lost.
	workers, err := c.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sawLeft bool
	for _, w := range workers {
		if w.Name == "drained" && w.State == service.WorkerLeft {
			sawLeft = true
		}
	}
	if !sawLeft {
		t.Fatalf("drained worker never left: %+v", workers)
	}

	cancel()
	for i := 0; i < 2; i++ {
		select {
		case <-runDone:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not stop")
		}
	}
}

// TestE2EDistributedCoordinatorDrainAndResume drains a coordinator while a
// distributed campaign is mid-flight: the job must go back to queued with
// the merged contiguous prefix as its checkpoint, and a coordinator
// restarted on the same state directory must lease only the remainder and
// finish bit-identical to the single-node run.
func TestE2EDistributedCoordinatorDrainAndResume(t *testing.T) {
	const runs = 960 // 15 batches, one per lease
	cfg := distDaemonConfig()
	cfg.StateDir = t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	svc1, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(svc1.Handler())
	defer srv1.Close()
	st, err := svc1.Submit(e2eRequest(runs, "prime"))
	if err != nil {
		t.Fatal(err)
	}

	// The worker completes three leases, then parks inside its fourth grant,
	// so exactly batches [0, 3) are merged when the coordinator drains.
	wctx, wstop := context.WithCancel(ctx)
	parked := make(chan struct{})
	grants := 0
	w := client.NewWorker(client.WorkerConfig{
		Coordinator: srv1.URL,
		OnLease: func(service.LeaseGrant) {
			if grants++; grants == 4 {
				close(parked)
				<-wctx.Done()
			}
		},
	})
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(wctx) }()
	select {
	case <-parked:
	case <-ctx.Done():
		t.Fatal("worker never reached its fourth lease")
	}

	if err := svc1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wstop()
	<-runDone
	mid, err := svc1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != service.StateQueued || mid.Progress == nil || mid.Progress.Done != 3*sim.Lanes {
		t.Fatalf("after drain: state %s progress %+v, want queued at %d runs", mid.State, mid.Progress, 3*sim.Lanes)
	}

	_, c2 := startDaemon(t, cfg)
	w2 := client.NewWorker(client.WorkerConfig{Coordinator: c2.BaseURL})
	go func() { runDone <- w2.Run(ctx) }()
	final, err := c2.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Resumed < 1 {
		t.Fatalf("resumed job ended %s (resumed %d): %s", final.State, final.Resumed, final.Error)
	}
	if got, want := *final.Result.Campaign, directResult(t, runs, "prime"); got != want {
		t.Fatalf("resumed distributed result %+v != uninterrupted %+v", got, want)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g := m["leases_granted_total"]; g != 12 {
		t.Errorf("restarted coordinator granted %d leases, want the 12 unmerged batches", g)
	}
	cancel()
	<-runDone
}

// TestE2EDistributedIdleWorkerStartsAtOnce: a worker with nothing to do
// parks in acquire, so a job submitted to an idle fleet is leased the moment
// the coordinator registers it rather than on a later poll. The coordinator
// runs at the DistConfig defaults.
func TestE2EDistributedIdleWorkerStartsAtOnce(t *testing.T) {
	svc, c := startDaemon(t, service.Config{Workers: 1, Dist: service.DistConfig{Enabled: true}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	granted := make(chan time.Time, 1)
	w := client.NewWorker(client.WorkerConfig{
		Coordinator: c.BaseURL,
		Name:        "idle",
		OnLease: func(service.LeaseGrant) {
			select {
			case granted <- time.Now():
			default:
			}
		},
	})
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Error(err)
		}
	}()
	for svc.Metrics.WorkersJoined.Value() == 0 {
		if ctx.Err() != nil {
			t.Fatal("the worker never joined")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // the worker's first acquire finds the table empty

	const runs = sim.Lanes
	st, err := c.Submit(ctx, e2eRequest(runs, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-granted:
		if wait := at.Sub(st.Submitted); wait > 200*time.Millisecond {
			t.Fatalf("the idle worker was granted the job's lease %v after submission, want at most 200ms", wait)
		}
	case <-ctx.Done():
		t.Fatal("the idle worker was never granted a lease")
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || *final.Result.Campaign != directResult(t, runs, "prime") {
		t.Fatalf("job on the idle fleet: %s %+v", final.State, final.Result)
	}
}

// TestE2EDistributedCompletionNeedsBatchTallies plays a worker by hand over
// the wire: a completion that does not carry exactly one tally per batch of
// its lease — a bare range total included — gets the typed 400 and changes
// nothing, and the honest per-batch report for the same lease then finishes
// the job bit-identical to the single-node run.
func TestE2EDistributedCompletionNeedsBatchTallies(t *testing.T) {
	cfg := distDaemonConfig()
	cfg.Dist.LeaseBatches = 8
	cfg.Dist.LeaseTTL = time.Minute
	_, c := startDaemon(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := e2eRequest(e2eRuns, "prime")
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := c.JoinWorker(ctx, service.JoinRequest{Name: "by-hand"})
	if err != nil {
		t.Fatal(err)
	}
	var g *service.LeaseGrant
	for g == nil {
		if g, err = c.AcquireLease(ctx, jr.WorkerID); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g.FirstBatch != 0 || g.LastBatch != 5 {
		t.Fatalf("grant %+v, want the whole 5-batch campaign", g)
	}
	camp, err := service.BuildCampaign(g.Design, &g.Campaign, service.EngineDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	var honest []service.CampaignResult
	if _, err := camp.ExecuteBatchesFunc(ctx, g.FirstBatch, g.LastBatch, nil, func(_ int, r fault.Result) {
		honest = append(honest, service.NewCampaignResult(r))
	}); err != nil {
		t.Fatal(err)
	}
	var total service.CampaignResult
	for _, b := range honest {
		total.Accumulate(b)
	}
	totalJSON, err := json.Marshal(total)
	if err != nil {
		t.Fatal(err)
	}

	complete := func(body string) (int, service.ErrorBody) {
		t.Helper()
		resp, err := http.Post(c.BaseURL+"/v1/leases/"+g.LeaseID+"/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var envelope struct {
			Error service.ErrorBody `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		return resp.StatusCode, envelope.Error
	}
	worker := `"worker_id":"` + jr.WorkerID + `"`
	for name, body := range map[string]string{
		"range total only":   `{` + worker + `,"counts":` + string(totalJSON) + `}`,
		"no batch tallies":   `{` + worker + `}`,
		"one batch short":    mustReport(t, jr.WorkerID, honest[:4]),
		"range total as one": mustReport(t, jr.WorkerID, []service.CampaignResult{total}),
	} {
		if status, e := complete(body); status != http.StatusBadRequest || e.Code != service.CodeInvalidRequest {
			t.Errorf("%s: status %d %+v, want 400 %s", name, status, e, service.CodeInvalidRequest)
		}
		ls, err := c.Leases(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) != 1 || ls[0].State != service.LeaseActive || ls[0].Worker != jr.WorkerID {
			t.Fatalf("%s: rejected report changed the lease table: %+v", name, ls)
		}
		if cur, err := c.Get(ctx, st.ID); err != nil || (cur.Progress != nil && cur.Progress.Done != 0) || cur.State.Terminal() {
			t.Fatalf("%s: rejected report moved the job: %+v %v", name, cur, err)
		}
	}

	if status, e := complete(mustReport(t, jr.WorkerID, honest)); status != http.StatusOK {
		t.Fatalf("honest report: status %d %+v", status, e)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || *final.Result.Campaign != directResult(t, e2eRuns, "prime") {
		t.Fatalf("job after the honest report: %s %+v", final.State, final.Result)
	}
}

// mustReport encodes a completion report carrying batches.
func mustReport(t *testing.T, workerID string, batches []service.CampaignResult) string {
	t.Helper()
	b, err := json.Marshal(service.LeaseReport{WorkerID: workerID, Batches: batches})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
