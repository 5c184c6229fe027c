package service_test

// End-to-end acceptance of the multifault job kind, the two properties the
// subsystem promises. First, placement-granular resume: a daemon drained
// mid-sweep comes back queued with a per-placement checkpoint and a restart
// on the same state directory finishes the sweep, producing a result
// bit-identical to an uninterrupted run. Second, fabric independence: the
// same request executed single-node, through the distributed lease fabric,
// and replayed from the content-addressed store yields byte-identical
// results — every placement campaign derives all randomness from
// (seed, batch), so where and when it executes cannot matter.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

func multiFaultRequest(mode string) service.JobRequest {
	req := service.JobRequest{
		Kind:   service.KindMultiFault,
		Design: service.DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
		MultiFault: &service.MultiFaultSpec{
			Mode:         mode,
			RunsPerTuple: 256,
			Seed:         e2eSeed,
			Key:          [2]service.U64{service.U64(e2eKey[0]), service.U64(e2eKey[1])},
		},
	}
	switch mode {
	case "kfault":
		req.MultiFault.K = 2
		req.MultiFault.Sboxes = []int{13} // 8 sites -> C(8,2) = 28 pairs
		req.MultiFault.MaxTuples = 6
	case "persistent":
		req.MultiFault.Sboxes = []int{12} // one table row
		req.MultiFault.MaxTuples = 4
	}
	return req
}

// finishMultiFault polls a submitted job to completion and returns its
// multifault result.
func finishMultiFault(t *testing.T, svc *service.Service, id string) *service.MultiFaultResult {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				t.Fatalf("job ended %s (%s)", st.State, st.Error)
			}
			if st.Result == nil || st.Result.MultiFault == nil {
				t.Fatal("done multifault job has no multifault result")
			}
			return st.Result.MultiFault
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("multifault job did not finish before deadline")
	return nil
}

func runMultiFault(t *testing.T, cfg service.Config, req service.JobRequest) *service.MultiFaultResult {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return finishMultiFault(t, svc, st.ID)
}

// TestE2EMultiFaultBitIdenticalAcrossFabric runs the same multifault sweep
// three ways — in-process, through a coordinator with an HTTP worker, and
// twice against one result store so the second pass replays — and requires
// all four results to be deeply equal, per placement, in both modes.
func TestE2EMultiFaultBitIdenticalAcrossFabric(t *testing.T) {
	for _, mode := range []string{"kfault", "persistent"} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
			defer cancel()
			req := multiFaultRequest(mode)

			single := runMultiFault(t, service.Config{Workers: 1}, req)
			if single.Planned == 0 || single.Executed != single.Planned {
				t.Fatalf("degenerate sweep: %+v", single)
			}

			// Distributed: the placements lease out to one worker process.
			svc, c := startDaemon(t, distDaemonConfig())
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			wctx, wstop := context.WithCancel(ctx)
			defer wstop()
			workerDone := make(chan error, 1)
			w := client.NewWorker(client.WorkerConfig{Coordinator: c.BaseURL, Name: "mf-worker"})
			go func() { workerDone <- w.Run(wctx) }()
			dist := finishMultiFault(t, svc, st.ID)
			wstop()
			select {
			case <-workerDone:
			case <-time.After(10 * time.Second):
				t.Fatal("worker did not stop")
			}
			if !reflect.DeepEqual(single, dist) {
				t.Fatalf("distributed sweep diverged:\n got  %+v\n want %+v", dist, single)
			}

			// Store-replayed: one state dir, same request twice. The second
			// submission must splice every placement batch from the store and
			// still produce the identical result.
			stateDir := t.TempDir()
			svc2, err := service.New(service.Config{Workers: 1, StateDir: stateDir})
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			first, err := svc2.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			cold := finishMultiFault(t, svc2, first.ID)
			second, err := svc2.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			warm := finishMultiFault(t, svc2, second.ID)
			if !reflect.DeepEqual(single, cold) || !reflect.DeepEqual(single, warm) {
				t.Fatalf("store-backed sweeps diverged:\n cold %+v\n warm %+v\n want %+v", cold, warm, single)
			}
			snap := svc2.Metrics.Snapshot()
			if snap["runs_replayed_total"] == 0 {
				t.Fatalf("second sweep never replayed from the store: %v", snap)
			}
		})
	}
}

// TestE2EMultiFaultDrainAndResume drains a daemon mid-sweep and restarts it
// on the same state directory: the job must come back queued with partial
// placement progress, finish after the restart with Resumed recorded, and
// the stitched result must equal an uninterrupted run placement for
// placement.
func TestE2EMultiFaultDrainAndResume(t *testing.T) {
	req := multiFaultRequest("kfault")
	req.MultiFault.MaxTuples = 0 // all 28 pairs, so the drain lands mid-sweep
	req.MultiFault.Prune = true  // exercise the singleton prepass end to end
	req.MultiFault.RunsPerTuple = 2048

	stateDir := t.TempDir()
	cfg := service.Config{Workers: 1, StateDir: stateDir}
	svc1, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first per-placement checkpoints, then drain mid-sweep.
	deadline := time.Now().Add(2 * time.Minute)
	var total int
	for {
		cur, err := svc1.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before drain: %s (%s)", cur.State, cur.Error)
		}
		if cur.Progress != nil && cur.Progress.Done >= 2 {
			total = cur.Progress.Total
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no multifault checkpoint observed before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if err := svc1.Drain(drainCtx); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()

	mid, err := svc1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != service.StateQueued {
		t.Fatalf("after drain the job is %s, want %s", mid.State, service.StateQueued)
	}
	if mid.Progress == nil || mid.Progress.Done == 0 || mid.Progress.Done >= total {
		t.Fatalf("after drain progress = %+v, want partial of %d", mid.Progress, total)
	}

	svc2, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	res := finishMultiFault(t, svc2, st.ID)

	final, err := svc2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Resumed < 1 {
		t.Errorf("resumed job has Resumed = %d, want >= 1", final.Resumed)
	}
	if got := svc2.Metrics.Snapshot()["jobs_resumed_total"]; got < 1 {
		t.Errorf("jobs_resumed_total = %d, want >= 1", got)
	}
	if len(res.Tuples) != res.Planned || res.Executed+res.Pruned != res.Planned {
		t.Fatalf("stitched sweep incomplete: %+v", res)
	}
	for i, tr := range res.Tuples {
		if tr.Index != i {
			t.Fatalf("placement %d carries index %d — checkpoint stitched out of order", i, tr.Index)
		}
	}

	// The stitched result equals an uninterrupted run on a fresh service.
	want := runMultiFault(t, service.Config{Workers: 1}, req)
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("resumed sweep diverged from uninterrupted run:\n got  %+v\n want %+v", res, want)
	}
}
