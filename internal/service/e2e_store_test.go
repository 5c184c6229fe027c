package service_test

// End-to-end acceptance of the content-addressed result store: resubmitting
// an identical campaign after a daemon restart must perform zero simulation
// batches (proved through scone_store_hits_total and the runs_simulated
// counter staying flat), an extended campaign must splice cached and fresh
// batches into a result bit-identical to an uninterrupted run, and the
// distributed coordinator must grant no leases for fully cached work. All
// of it rests on the determinism contract: batch b derives every random bit
// from (seed, b), so a stored batch IS the batch a re-run would simulate.

import (
	"bufio"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// storeDaemon starts a daemon whose lifecycle the test controls (no
// t.Cleanup auto-close): restart tests need to drain and re-open the same
// state directory mid-test.
func storeDaemon(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server, *client.Client) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	return svc, srv, client.New(srv.URL)
}

// drainDaemon gracefully stops a daemon, which also closes its result store.
func drainDaemon(t *testing.T, svc *service.Service, srv *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

// promCounter extracts one instrument's value from Prometheus text
// exposition.
func promCounter(t *testing.T, text, name string) int64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("unparseable %s value %q", name, fields[1])
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// submitAndWait submits req and blocks until the job is done, returning its
// campaign result.
func submitAndWait(t *testing.T, ctx context.Context, c *client.Client, req service.JobRequest) service.CampaignResult {
	t.Helper()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if terminal, outcome := client.Done(final); !terminal || outcome != nil {
		t.Fatalf("job ended %q: %v (%s)", final.State, outcome, final.Error)
	}
	if final.Result == nil || final.Result.Campaign == nil {
		t.Fatal("done job has no campaign result")
	}
	return *final.Result.Campaign
}

// TestE2EStoreResubmitAfterRestartZeroSimulation is the store's acceptance
// scenario: run a campaign, restart the daemon on the same state directory,
// resubmit the identical campaign, and require (a) zero batches simulated
// the second time — every batch a store hit, the simulation counter flat —
// and (b) a bit-identical result, for every entropy variant.
func TestE2EStoreResubmitAfterRestartZeroSimulation(t *testing.T) {
	const batches = (e2eRuns + 63) / 64 // sim.Lanes-sized batches
	for _, entropy := range []string{"prime", "per-round", "per-sbox"} {
		t.Run(entropy, func(t *testing.T) {
			stateDir := t.TempDir()
			cfg := service.Config{Workers: 1, CheckpointEveryRuns: 64, StateDir: stateDir}
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
			defer cancel()

			svc1, srv1, c1 := storeDaemon(t, cfg)
			first := submitAndWait(t, ctx, c1, e2eRequest(e2eRuns, entropy))
			want := directResult(t, e2eRuns, entropy)
			if first != want {
				t.Fatalf("cold run diverged from direct execution:\n got  %+v\n want %+v", first, want)
			}
			drainDaemon(t, svc1, srv1)

			svc2, srv2, c2 := storeDaemon(t, cfg)
			defer func() { srv2.Close(); svc2.Close() }()

			// Zero-simulation read path: the restarted daemon answers the
			// query entirely from the store before any resubmission.
			view, err := c2.Results(ctx, e2eRequest(e2eRuns, entropy))
			if err != nil {
				t.Fatal(err)
			}
			if !view.Complete || view.CachedBatches != batches || view.Result == nil {
				t.Fatalf("restarted store does not cover the campaign: %+v", view)
			}
			if *view.Result != first {
				t.Fatalf("stored result %+v != original %+v", *view.Result, first)
			}

			before, err := c2.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			second := submitAndWait(t, ctx, c2, e2eRequest(e2eRuns, entropy))
			if second != first {
				t.Fatalf("replayed result diverged:\n got  %+v\n want %+v", second, first)
			}

			after, err := c2.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if sim := after["runs_simulated_total"] - before["runs_simulated_total"]; sim != 0 {
				t.Errorf("resubmission simulated %d runs, want 0", sim)
			}
			if rep := after["runs_replayed_total"] - before["runs_replayed_total"]; rep != e2eRuns {
				t.Errorf("runs_replayed_total advanced by %d, want %d", rep, e2eRuns)
			}
			text, err := c2.MetricsText(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if hits := promCounter(t, text, "scone_store_hits_total"); hits != batches {
				t.Errorf("scone_store_hits_total = %d, want %d", hits, batches)
			}
			if misses := promCounter(t, text, "scone_store_misses_total"); misses != 0 {
				t.Errorf("scone_store_misses_total = %d, want 0", misses)
			}

			// Both executions left durable provenance: the cold run all
			// simulation, the replayed run all cache.
			runs, err := c2.StoredRuns(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 2 {
				t.Fatalf("stored %d run records, want 2: %+v", len(runs), runs)
			}
			cold, warm := runs[0], runs[1]
			if cold.SimulatedBatches != batches || cold.ReplayedBatches != 0 || cold.State != "done" {
				t.Errorf("cold run record %+v", cold)
			}
			if warm.SimulatedBatches != 0 || warm.ReplayedBatches != batches || warm.State != "done" {
				t.Errorf("replayed run record %+v", warm)
			}
			if cold.Campaign == "" || cold.Campaign != warm.Campaign {
				t.Errorf("run records disagree on the campaign digest: %q vs %q", cold.Campaign, warm.Campaign)
			}
			rec, err := c2.StoredRun(ctx, warm.ID)
			if err != nil {
				t.Fatal(err)
			}
			if rec.ID != warm.ID || rec.Result == nil || rec.Result.Total != e2eRuns {
				t.Errorf("single-record fetch %+v", rec)
			}
		})
	}
}

// TestE2EStoreIncrementalExtend doubles a cached campaign's run count: the
// first half of the extended run must replay from the store, the second
// half simulate fresh, and the interleaved merge must equal a direct
// uninterrupted execution bit for bit.
func TestE2EStoreIncrementalExtend(t *testing.T) {
	const extended = 2 * e2eRuns
	cfg := service.Config{Workers: 1, CheckpointEveryRuns: 64, StateDir: t.TempDir()}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	svc, srv, c := storeDaemon(t, cfg)
	defer func() { srv.Close(); svc.Close() }()

	submitAndWait(t, ctx, c, e2eRequest(e2eRuns, "prime"))
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := submitAndWait(t, ctx, c, e2eRequest(extended, "prime"))
	if want := directResult(t, extended, "prime"); got != want {
		t.Fatalf("extended campaign diverged:\n got  %+v\n want %+v", got, want)
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep := after["runs_replayed_total"] - before["runs_replayed_total"]; rep != e2eRuns {
		t.Errorf("extension replayed %d runs, want %d", rep, e2eRuns)
	}
	if sim := after["runs_simulated_total"] - before["runs_simulated_total"]; sim != extended-e2eRuns {
		t.Errorf("extension simulated %d runs, want %d", sim, extended-e2eRuns)
	}
}

// TestE2EStoreDistributedResubmitGrantsNoLeases requires the coordinator to
// lease only uncached ranges: after a campaign completes once through a
// worker, resubmitting it must finish with zero additional lease grants —
// the register step pre-completes every cached range.
func TestE2EStoreDistributedResubmitGrantsNoLeases(t *testing.T) {
	cfg := distDaemonConfig()
	cfg.StateDir = t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	svc, srv, c := storeDaemon(t, cfg)
	defer func() { srv.Close(); svc.Close() }()

	w := client.NewWorker(client.WorkerConfig{Coordinator: c.BaseURL, Name: "filler"})
	wctx, wstop := context.WithCancel(ctx)
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(wctx) }()

	first := submitAndWait(t, ctx, c, e2eRequest(e2eRuns, "prime"))
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second := submitAndWait(t, ctx, c, e2eRequest(e2eRuns, "prime"))
	if second != first {
		t.Fatalf("cached distributed result diverged:\n got  %+v\n want %+v", second, first)
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if granted := after["leases_granted_total"] - before["leases_granted_total"]; granted != 0 {
		t.Errorf("resubmission granted %d leases, want 0", granted)
	}
	if sim := after["runs_simulated_total"] - before["runs_simulated_total"]; sim != 0 {
		t.Errorf("resubmission simulated %d runs, want 0", sim)
	}
	if rep := after["runs_replayed_total"] - before["runs_replayed_total"]; rep != e2eRuns {
		t.Errorf("resubmission replayed %d runs, want %d", rep, e2eRuns)
	}

	wstop()
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
}
