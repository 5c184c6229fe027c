package service

// Unit tests for the coordinator's lease table: grant order, out-of-order
// merge, heartbeat renewal, expiry/reassignment, the attempt budget, clean
// worker leave and drain. These drive the state machine directly (no HTTP,
// no simulation) so every transition is tested in isolation; the e2e suite
// covers the same machinery end to end with real workers.

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

func distReq() JobRequest {
	return JobRequest{
		Kind:   KindCampaign,
		Design: DesignSpec{Cipher: "present80", Scheme: "three-in-one"},
		Campaign: &CampaignSpec{
			Runs: 320, Seed: 1,
			Faults: []FaultSpec{{Sbox: 13, Bit: 2, Model: "stuck-at-0"}},
		},
	}
}

// distTask is a storeless 320-run (5-batch) campaign task over distReq, as
// the coordinator sees it: the lease table needs the request and the batch
// layout, never the built design.
func distTask(id string) *campaignTask {
	req := distReq()
	return &campaignTask{id: id, req: req, camp: &fault.Campaign{Runs: req.Campaign.Runs}}
}

// tallies is a completion report's batch tallies: n batches, each tallied
// per.
func tallies(n int, per CampaignResult) []CampaignResult {
	out := make([]CampaignResult, n)
	for i := range out {
		out[i] = per
	}
	return out
}

// acquirePoll retries acquire until a grant arrives or a second passes,
// riding out jittered backoff gates.
func acquirePoll(t *testing.T, c *coordinator, workerID string) *LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		g, err := c.acquire(workerID)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			return g
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted within a second")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCoordinatorGrantOrderAndMerge(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 2, LeaseTTL: time.Hour})
	changed := c.changed()
	c.register(distTask("j1"), 0, CampaignResult{})
	select {
	case <-changed:
	default:
		t.Fatal("register did not close the change channel")
	}
	if got := len(c.leasesInfo()); got != 3 {
		t.Fatalf("5 batches at 2 per lease made %d leases, want 3", got)
	}

	w1 := c.join(JoinRequest{Name: "a"})
	w2 := c.join(JoinRequest{Name: "b"})
	if w1.HeartbeatMS != (time.Hour / 3).Milliseconds() {
		t.Fatalf("join pacing %+v", w1)
	}

	g1 := acquirePoll(t, c, w1.WorkerID)
	g2 := acquirePoll(t, c, w2.WorkerID)
	if g1.FirstBatch != 0 || g1.LastBatch != 2 || g2.FirstBatch != 2 || g2.LastBatch != 4 {
		t.Fatalf("grants out of range order: %+v %+v", g1, g2)
	}
	if g1.JobID != "j1" || g1.Campaign.Runs != 320 {
		t.Fatalf("grant payload %+v", g1)
	}
	// A worker's active leases are counted from the lease table.
	if ws := c.workersInfo(); ws[0].Active != 1 || ws[1].Active != 1 {
		t.Fatalf("active leases while both ranges are out: %+v", ws)
	}

	// Out-of-order completion parks until the prefix is contiguous.
	if err := c.complete(g2.LeaseID, LeaseReport{
		WorkerID: w2.WorkerID, Batches: tallies(2, CampaignResult{Total: 64, Detected: 64}),
	}); err != nil {
		t.Fatal(err)
	}
	p := c.snapshot("j1")
	if p.cursor != 0 || p.acc.Total != 0 || p.done {
		t.Fatalf("cursor advanced past a gap: cursor %d acc %+v", p.cursor, p.acc)
	}
	if err := c.complete(g1.LeaseID, LeaseReport{
		WorkerID: w1.WorkerID, Batches: tallies(2, CampaignResult{Total: 64, Ineffective: 14, Detected: 50}),
	}); err != nil {
		t.Fatal(err)
	}
	p = c.snapshot("j1")
	if p.cursor != 4 || p.acc.Total != 256 || p.acc.Detected != 228 || p.done {
		t.Fatalf("after folding both ranges: cursor %d acc %+v", p.cursor, p.acc)
	}

	g3 := acquirePoll(t, c, w1.WorkerID)
	if g3.FirstBatch != 4 || g3.LastBatch != 5 {
		t.Fatalf("tail grant %+v", g3)
	}
	if err := c.complete(g3.LeaseID, LeaseReport{
		WorkerID: w1.WorkerID, Batches: tallies(1, CampaignResult{Total: 64, Detected: 64}),
	}); err != nil {
		t.Fatal(err)
	}
	p = c.snapshot("j1")
	if p.cursor != 5 || !p.done || p.failed != "" || p.acc.Total != 320 || p.acc.Detected != 292 {
		t.Fatalf("final snapshot: cursor %d done %v acc %+v", p.cursor, p.done, p.acc)
	}
	if got := len(c.leasesInfo()); got != 0 {
		t.Fatalf("%d leases survive a finished job", got)
	}

	ws := c.workersInfo()
	if len(ws) != 2 || ws[0].ID >= ws[1].ID {
		t.Fatalf("worker listing %+v", ws)
	}
	if ws[0].Completed+ws[1].Completed != 3 || ws[0].Active+ws[1].Active != 0 {
		t.Fatalf("worker accounting %+v", ws)
	}
}

func TestCoordinatorHeartbeatRenewsAndDrops(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 8, LeaseTTL: time.Hour})
	c.register(distTask("j1"), 0, CampaignResult{})
	w := c.join(JoinRequest{})
	g := acquirePoll(t, c, w.WorkerID)

	resp, err := c.heartbeat(w.WorkerID, HeartbeatRequest{
		Leases: map[string]int{g.LeaseID: 3, "l999999": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Drop) != 1 || resp.Drop[0] != "l999999" {
		t.Fatalf("drop list %v, want the unknown lease only", resp.Drop)
	}
	ls := c.leasesInfo()
	if len(ls) != 1 || ls[0].DoneBatches != 3 || ls[0].State != LeaseActive {
		t.Fatalf("lease after heartbeat %+v", ls)
	}
	// A renewed lease survives a sweep well past the original deadline.
	c.sweep(time.Now().Add(30 * time.Minute))
	if ls := c.leasesInfo(); ls[0].State != LeaseActive {
		t.Fatalf("renewed lease swept: %+v", ls[0])
	}

	if _, err := c.heartbeat("w999999", HeartbeatRequest{}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("unknown worker heartbeat: %v", err)
	}
}

func TestCoordinatorExpiryReassignsAndConflicts(t *testing.T) {
	ttl := 40 * time.Millisecond
	c := newCoordinator(DistConfig{LeaseBatches: 8, LeaseTTL: ttl})
	c.register(distTask("j1"), 0, CampaignResult{})
	w1 := c.join(JoinRequest{Name: "victim"})
	w2 := c.join(JoinRequest{Name: "survivor"})
	g1 := acquirePoll(t, c, w1.WorkerID)

	// No heartbeat for longer than the TTL: the sweep requeues the lease
	// with a backoff gate and keeps the attempt on the books.
	time.Sleep(ttl + 10*time.Millisecond)
	c.sweep(time.Now())
	ls := c.leasesInfo()
	if len(ls) != 1 || ls[0].State != LeasePending || ls[0].Attempt != 1 || ls[0].NotBefore == nil {
		t.Fatalf("lease after expiry %+v", ls)
	}

	g2 := acquirePoll(t, c, w2.WorkerID)
	if g2.LeaseID != g1.LeaseID || g2.FirstBatch != g1.FirstBatch {
		t.Fatalf("reassignment granted %+v, want the expired range %+v", g2, g1)
	}
	if ls := c.leasesInfo(); ls[0].Attempt != 2 || ls[0].Worker != w2.WorkerID {
		t.Fatalf("reassigned lease %+v", ls[0])
	}

	// The original owner's late report is a conflict; the new owner's
	// heartbeat renews the lease and records its done count.
	err := c.complete(g1.LeaseID, LeaseReport{WorkerID: w1.WorkerID, Batches: tallies(5, CampaignResult{Total: 64, Detected: 64})})
	if !errors.Is(err, ErrLeaseConflict) {
		t.Fatalf("stale complete: %v", err)
	}
	if resp, err := c.heartbeat(w2.WorkerID, HeartbeatRequest{Leases: map[string]int{g2.LeaseID: 2}}); err != nil || len(resp.Drop) != 0 {
		t.Fatalf("new owner's heartbeat: %+v %v", resp, err)
	}
	if ls := c.leasesInfo(); ls[0].DoneBatches != 2 {
		t.Fatalf("heartbeat done count not recorded: %+v", ls[0])
	}
	p := c.snapshot("j1")
	if p.cursor != 0 || p.acc.Total != 0 {
		t.Fatalf("stale counts leaked into the merge: cursor %d acc %+v", p.cursor, p.acc)
	}
}

func TestCoordinatorFailureBudgetFailsJob(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 8, LeaseTTL: 40 * time.Millisecond, MaxAttempts: 2})
	c.register(distTask("j1"), 0, CampaignResult{})
	w := c.join(JoinRequest{})

	for attempt := 1; attempt <= 2; attempt++ {
		g := acquirePoll(t, c, w.WorkerID)
		if err := c.fail(g.LeaseID, LeaseReport{WorkerID: w.WorkerID, Error: "boom"}); err != nil {
			t.Fatalf("fail attempt %d: %v", attempt, err)
		}
	}
	p := c.snapshot("j1")
	if p.done || p.failed == "" {
		t.Fatalf("job not failed after exhausting attempts: done %v failed %q", p.done, p.failed)
	}
	// A failed job's leases are never granted again.
	time.Sleep(60 * time.Millisecond)
	if g, err := c.acquire(w.WorkerID); err != nil || g != nil {
		t.Fatalf("grant from a failed job: %v %v", g, err)
	}
	if ws := c.workersInfo(); ws[0].Active != 0 {
		t.Fatalf("worker accounting after failures %+v", ws[0])
	}
	c.unregister("j1")
	if got := len(c.leasesInfo()); got != 0 {
		t.Fatalf("%d leases survive unregister", got)
	}
}

func TestCoordinatorLeaveReleasesUncharged(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 8, LeaseTTL: time.Hour})
	c.register(distTask("j1"), 0, CampaignResult{})
	w1 := c.join(JoinRequest{})
	w2 := c.join(JoinRequest{})
	g1 := acquirePoll(t, c, w1.WorkerID)

	if err := c.leave(w1.WorkerID); err != nil {
		t.Fatal(err)
	}
	// No backoff gate and no attempt charge: the range was not at fault.
	g2, err := c.acquire(w2.WorkerID)
	if err != nil || g2 == nil || g2.LeaseID != g1.LeaseID {
		t.Fatalf("post-leave acquire: %+v %v", g2, err)
	}
	if ls := c.leasesInfo(); ls[0].Attempt != 1 {
		t.Fatalf("leave charged an attempt: %+v", ls[0])
	}

	// A left worker's ID is retired.
	if _, err := c.heartbeat(w1.WorkerID, HeartbeatRequest{}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat after leave: %v", err)
	}
	if _, err := c.acquire(w1.WorkerID); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("acquire after leave: %v", err)
	}
	if err := c.leave("w999999"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("leave of unknown worker: %v", err)
	}
}

func TestCoordinatorRegisterFromCheckpoint(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 2, LeaseTTL: time.Hour})
	acc := CampaignResult{Total: 192, Detected: 180, Ineffective: 12}
	c.register(distTask("j1"), 3, acc)

	p := c.snapshot("j1")
	if p.cursor != 3 || p.acc != acc || p.done {
		t.Fatalf("resume snapshot: cursor %d acc %+v", p.cursor, p.acc)
	}
	ls := c.leasesInfo()
	if len(ls) != 1 || ls[0].FirstBatch != 3 || ls[0].LastBatch != 5 {
		t.Fatalf("resume lease table %+v", ls)
	}

	w := c.join(JoinRequest{})
	g := acquirePoll(t, c, w.WorkerID)
	if err := c.complete(g.LeaseID, LeaseReport{
		WorkerID: w.WorkerID, Batches: tallies(2, CampaignResult{Total: 64, Detected: 60, Ineffective: 4}),
	}); err != nil {
		t.Fatal(err)
	}
	p = c.snapshot("j1")
	if p.cursor != 5 || !p.done || p.acc.Total != 320 || p.acc.Detected != 300 || p.acc.Ineffective != 20 {
		t.Fatalf("resumed job final: cursor %d acc %+v", p.cursor, p.acc)
	}
}

// TestCoordinatorRejectsMalformedCompletion: a completion report that is not
// one exact tally per batch of its lease's range is refused with the typed
// 400 and changes nothing — the lease stays the worker's and the merge
// cursor does not move — while the honest report for the same lease is
// merged.
func TestCoordinatorRejectsMalformedCompletion(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 2, LeaseTTL: time.Hour})
	c.register(distTask("j1"), 0, CampaignResult{})
	w := c.join(JoinRequest{})
	g := acquirePoll(t, c, w.WorkerID)
	if g.FirstBatch != 0 || g.LastBatch != 2 {
		t.Fatalf("grant %+v", g)
	}
	batch := CampaignResult{Total: 64, Ineffective: 14, Detected: 50}
	for _, tc := range []struct {
		name    string
		batches []CampaignResult
	}{
		{"no batch tallies", nil},
		{"one range total for two batches", []CampaignResult{{Total: 128, Ineffective: 28, Detected: 100}}},
		{"a tally too many", tallies(3, batch)},
		{"batch tallies are not per-batch", []CampaignResult{{Total: 100, Detected: 100}, {Total: 28, Ineffective: 28}}},
		{"a batch total is not its runs", []CampaignResult{batch, {Total: 63, Ineffective: 13, Detected: 50}}},
		{"outcomes do not sum to the total", []CampaignResult{batch, {Total: 64, Detected: 50}}},
		{"a negative outcome", []CampaignResult{batch, {Total: 64, Ineffective: 78, Detected: -14}}},
	} {
		err := c.complete(g.LeaseID, LeaseReport{WorkerID: w.WorkerID, Batches: tc.batches})
		if status, code := errorStatus(err); err == nil || status != 400 || code != CodeInvalidRequest {
			t.Errorf("%s: complete = %v (%d %s), want a 400 %s", tc.name, err, status, code, CodeInvalidRequest)
		}
		if p := c.snapshot("j1"); p.cursor != 0 || p.acc.Total != 0 {
			t.Fatalf("%s: rejected report merged: cursor %d acc %+v", tc.name, p.cursor, p.acc)
		}
		if ls := c.leasesInfo(); ls[0].State != LeaseActive || ls[0].Worker != w.WorkerID {
			t.Fatalf("%s: rejected report released the lease: %+v", tc.name, ls[0])
		}
	}

	if err := c.complete(g.LeaseID, LeaseReport{WorkerID: w.WorkerID, Batches: tallies(2, batch)}); err != nil {
		t.Fatalf("honest report rejected: %v", err)
	}
	if p, want := c.snapshot("j1"), (CampaignResult{Total: 128, Ineffective: 28, Detected: 100}); p.cursor != 2 || p.acc != want {
		t.Fatalf("honest report: cursor %d acc %+v, want %+v", p.cursor, p.acc, want)
	}
}

func TestCoordinatorDraining(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 8, LeaseTTL: time.Hour})
	c.register(distTask("j1"), 0, CampaignResult{})
	w := c.join(JoinRequest{})

	c.setDraining()
	if _, err := c.acquire(w.WorkerID); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire while draining: %v", err)
	}
	if _, err := c.heartbeat(w.WorkerID, HeartbeatRequest{}); err != nil {
		t.Fatalf("heartbeat while draining: %v", err)
	}
}

// TestCoordinatorParkedAcquire: an acquire with nothing to grant parks on
// the lease table's change channel. register's new lease, drain, and a
// backoff gate that the next sweep finds passed each answer it at once;
// when its context ends it answers empty.
func TestCoordinatorParkedAcquire(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 8, LeaseTTL: time.Hour})
	w := c.join(JoinRequest{})
	type answer struct {
		g   *LeaseGrant
		err error
	}
	// park starts an acquire and requires it to still be parked a moment
	// later, when nothing has changed.
	park := func(ctx context.Context) <-chan answer {
		out := make(chan answer, 1)
		go func() {
			g, err := c.acquireWait(ctx, w.WorkerID)
			out <- answer{g, err}
		}()
		select {
		case a := <-out:
			t.Fatalf("acquire answered %+v %v with nothing changed", a.g, a.err)
		case <-time.After(20 * time.Millisecond):
		}
		return out
	}
	answered := func(parked <-chan answer) answer {
		t.Helper()
		select {
		case a := <-parked:
			return a
		case <-time.After(5 * time.Second):
			t.Fatal("the parked acquire did not answer")
			return answer{}
		}
	}
	ctx := context.Background()

	parked := park(ctx)
	c.register(distTask("j1"), 0, CampaignResult{})
	g := answered(parked)
	if g.err != nil || g.g == nil || g.g.FirstBatch != 0 || g.g.LastBatch != 5 {
		t.Fatalf("parked acquire after register: %+v %v", g.g, g.err)
	}

	// A failed lease waits out its backoff gate. Once the gate has passed,
	// the next sweep hands the range to the parked acquire.
	if err := c.fail(g.g.LeaseID, LeaseReport{WorkerID: w.WorkerID, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	parked = park(ctx)
	c.mu.Lock()
	c.order[0].notBefore = time.Now()
	c.mu.Unlock()
	select {
	case a := <-parked:
		t.Fatalf("acquire answered %+v %v before a sweep", a.g, a.err)
	case <-time.After(20 * time.Millisecond):
	}
	c.sweep(time.Now())
	if a := answered(parked); a.err != nil || a.g == nil || a.g.LeaseID != g.g.LeaseID {
		t.Fatalf("parked acquire after the gate and a sweep: %+v %v, want %s", a.g, a.err, g.g.LeaseID)
	}

	ended, cancel := context.WithCancel(ctx)
	parked = park(ended)
	cancel()
	if a := answered(parked); a.g != nil || a.err != nil {
		t.Fatalf("parked acquire after its context ended: %+v %v, want nothing", a.g, a.err)
	}

	parked = park(ctx)
	c.setDraining()
	if a := answered(parked); !errors.Is(a.err, ErrDraining) {
		t.Fatalf("parked acquire on drain: %+v %v, want %v", a.g, a.err, ErrDraining)
	}
}

// TestCoordinatorClaim: without Dist.Enabled the job's own goroutine claims
// its leases in batch order. A claim has no worker and no TTL, so the
// janitor never expires it and workers never see it; a claim cut short
// merges exactly its finished prefix; and the fleet counters, which count
// remote workers' leases only, stay at zero.
func TestCoordinatorClaim(t *testing.T) {
	c := newCoordinator(DistConfig{LeaseBatches: 2, LeaseTTL: time.Hour})
	c.metrics = newMetrics(obs.NewRegistry(), func() int { return 0 }, c)
	dj := c.register(distTask("j1"), 0, CampaignResult{})
	w := c.join(JoinRequest{Name: "bystander"})

	var claims []*lease
	for l := c.claim(dj); l != nil; l = c.claim(dj) {
		claims = append(claims, l)
	}
	var got [][2]int
	for _, l := range claims {
		got = append(got, [2]int{l.first, l.last})
	}
	if want := [][2]int{{0, 2}, {2, 4}, {4, 5}}; !slices.Equal(got, want) {
		t.Fatalf("claimed ranges %v, want %v", got, want)
	}
	if g, err := c.acquire(w.WorkerID); err != nil || g != nil {
		t.Fatalf("a worker was granted a claimed range: %+v %v", g, err)
	}

	c.sweep(time.Now().Add(100 * time.Hour))
	ls := c.leasesInfo()
	if len(ls) != 3 {
		t.Fatalf("lease table after the sweep %+v, want the 3 claims", ls)
	}
	for _, l := range ls {
		if l.State != LeaseActive || l.Worker != "" || l.Expires != nil {
			t.Fatalf("claim listed as %+v, want active with no worker and no deadline", l)
		}
	}

	batch := CampaignResult{Total: 64, Ineffective: 14, Detected: 50}
	c.mu.Lock()
	err := c.mergeLocked(dj, claims[0], claims[0].first+1, []CampaignResult{batch})
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if p := c.snapshot("j1"); p.cursor != 1 || p.acc != batch || p.simulatedBatches != 1 {
		t.Fatalf("after one of the first claim's two batches: cursor %d acc %+v simulated %d", p.cursor, p.acc, p.simulatedBatches)
	}

	m := c.metrics.Snapshot()
	for _, k := range []string{"leases_granted_total", "leases_completed_total", "leases_expired_total", "leases_reassigned_total"} {
		if m[k] != 0 {
			t.Errorf("%s = %d on claims alone, want 0", k, m[k])
		}
	}
	if m["leases_active"] != 3 {
		t.Errorf("leases_active = %d, want the 3 claims", m["leases_active"])
	}
	if ws := c.workersInfo(); ws[0].Active != 0 || ws[0].Completed != 0 {
		t.Errorf("worker accounting on claims alone %+v", ws[0])
	}
}
