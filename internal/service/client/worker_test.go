package client

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestDesignCacheWorkerBuildsOnce spreads one campaign over several
// one-batch leases to a single worker: the worker builds and compiles the
// design for its first lease and reuses it for every later one.
func TestDesignCacheWorkerBuildsOnce(t *testing.T) {
	const leases = 4
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{
		Workers: 1,
		Obs:     reg,
		Dist:    service.DistConfig{Enabled: true, LeaseBatches: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		_ = svc.Close()
	})
	c := New(srv.URL)
	req := campaignRequest(leases * sim.Lanes)

	// Build the coordinator's copy first, so the compile counter below
	// sees the worker alone.
	if _, err := svc.Results(req); err != nil {
		t.Fatal(err)
	}
	sim.EnableObservability(reg)
	defer sim.EnableObservability(nil)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "w", SimWorkers: 1})
	stopped := make(chan error, 1)
	go func() { stopped <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-stopped; err != nil {
			t.Error(err)
		}
	}()

	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || st.State != service.StateDone {
		t.Fatalf("job: %+v %v", st, err)
	}
	if n := svc.Metrics.LeasesGranted.Value(); n < leases {
		t.Fatalf("the campaign ran in %d leases, want at least %d", n, leases)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	misses := -1
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "scone_sim_compile_cache_misses_total" {
			misses, _ = strconv.Atoi(f[1])
		}
	}
	if misses != 1 {
		t.Fatalf("one worker compiled %d designs over %d leases of one spec, want 1", misses, leases)
	}
}
