package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// startDaemon runs a real Service behind httptest and returns a client for
// it, so every assertion below is a full wire round trip.
func startDaemon(t *testing.T, cfg service.Config) *Client {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		_ = svc.Close()
	})
	return New(srv.URL)
}

func campaignRequest(runs int) service.JobRequest {
	return service.JobRequest{
		Kind:   service.KindCampaign,
		Design: service.DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
		Campaign: &service.CampaignSpec{
			Runs:   runs,
			Seed:   0x5C09E,
			Key:    [2]service.U64{0x0123456789ABCDEF, 0x8421},
			Faults: []service.FaultSpec{{Sbox: 0, Bit: 0, Model: "stuck-at-0"}},
		},
	}
}

func TestSentinelErrors(t *testing.T) {
	c := startDaemon(t, service.Config{Workers: 1})
	ctx := context.Background()

	_, err := c.Get(ctx, "j424242")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: got %v, want ErrNotFound", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("404 must not match ErrQueueFull")
	}
	// The typed error is still there for callers who need the raw code.
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("want *Error with 404, got %v", err)
	}
}

func TestQueueFullRoundTrip(t *testing.T) {
	// One worker, one slot: the first job occupies the worker, the second
	// fills the queue, a third submission must shed as ErrQueueFull.
	c := startDaemon(t, service.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	first, err := c.Submit(ctx, campaignRequest(400_000))
	if err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for i := 0; i < 16 && !sawFull; i++ {
		_, err := c.Submit(ctx, campaignRequest(400_000))
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !sawFull {
		t.Fatal("never observed ErrQueueFull with a 1-deep queue")
	}
	if _, err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
}

func TestJobStatesAndDone(t *testing.T) {
	c := startDaemon(t, service.Config{Workers: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, campaignRequest(640))
	if err != nil {
		t.Fatal(err)
	}
	// The client's re-exported states are the server's wire values.
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job in state %q", st.State)
	}
	if terminal, _ := Done(st); terminal {
		t.Fatalf("state %q reported terminal", st.State)
	}

	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	terminal, outcome := Done(final)
	if !terminal || outcome != nil {
		t.Fatalf("completed job: terminal=%v outcome=%v", terminal, outcome)
	}
	if final.Result == nil || final.Result.Campaign == nil || final.Result.Campaign.Total != 640 {
		t.Fatalf("bad result: %+v", final.Result)
	}

	// A canceled job maps to ErrCanceled.
	st2, err := c.Submit(ctx, campaignRequest(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st2.ID); err != nil {
		t.Fatal(err)
	}
	final2, err := c.Wait(ctx, st2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome := Done(final2); !errors.Is(outcome, ErrCanceled) {
		t.Fatalf("canceled job outcome = %v, want ErrCanceled", outcome)
	}
}

func TestMetricsBothViews(t *testing.T) {
	c := startDaemon(t, service.Config{Workers: 1})
	ctx := context.Background()

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs_submitted_total", "queue_depth", "jobs_running"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON snapshot missing legacy key %q: %v", key, m)
		}
	}

	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE scone_service_jobs_submitted_total counter",
		"scone_service_queue_depth_count",
		"scone_service_job_wait_ns_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// shedServer fakes a /v1 daemon that sheds the first n submissions with the
// typed queue_full envelope, so retry behavior is tested without having to
// race a real queue.
func shedServer(t *testing.T, shed int32) (*Client, *int32) {
	t.Helper()
	var attempts int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if atomic.AddInt32(&attempts, 1) <= shed {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"queue_full","message":"job queue full"}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j000000","kind":"campaign","state":"queued"}`))
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL), &attempts
}

func TestSubmitRetriesQueueFull(t *testing.T) {
	c, attempts := shedServer(t, 2)
	c.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond}

	st, err := c.Submit(context.Background(), campaignRequest(640))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000000" {
		t.Fatalf("retried submit returned %+v", st)
	}
	if got := atomic.LoadInt32(attempts); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 shed + 1 accepted)", got)
	}
}

func TestSubmitRetryBudgetExhausted(t *testing.T) {
	c, attempts := shedServer(t, 1<<30)
	c.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}

	_, err := c.Submit(context.Background(), campaignRequest(640))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("persistently full daemon: %v, want ErrQueueFull", err)
	}
	if got := atomic.LoadInt32(attempts); got != 3 {
		t.Fatalf("server saw %d attempts, want exactly MaxAttempts=3", got)
	}
}

func TestSubmitRetryHonorsContext(t *testing.T) {
	c, _ := shedServer(t, 1<<30)
	// Backoff far longer than the deadline: the retry sleep must abort.
	c.Retry = RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, campaignRequest(640))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit under deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry sleep ignored the context for %v", elapsed)
	}
}

func TestSubmitDoesNotRetryOtherErrors(t *testing.T) {
	var attempts int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&attempts, 1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_request","message":"bad"}}`))
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	_, err := c.Submit(context.Background(), campaignRequest(640))
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != service.CodeInvalidRequest {
		t.Fatalf("validation failure: %v", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("invalid_request matched ErrQueueFull")
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("non-shed error retried: %d attempts", got)
	}
}

// TestDistEndpointsRoundTrip drives every worker/lease endpoint once
// against a real coordinator, including the 204 no-lease and post-leave
// not_found shapes. The short lease TTL bounds how long the idle acquire
// parks (one heartbeat interval, TTL/3).
func TestDistEndpointsRoundTrip(t *testing.T) {
	c := startDaemon(t, service.Config{Workers: 1, Dist: service.DistConfig{Enabled: true, LeaseTTL: 300 * time.Millisecond}})
	ctx := context.Background()

	jr, err := c.JoinWorker(ctx, service.JoinRequest{Name: "probe"})
	if err != nil || jr.WorkerID == "" || jr.HeartbeatMS <= 0 {
		t.Fatalf("join: %+v %v", jr, err)
	}

	// No jobs queued: acquire is a clean 204 -> (nil, nil).
	g, err := c.AcquireLease(ctx, jr.WorkerID)
	if err != nil || g != nil {
		t.Fatalf("idle acquire: %+v %v", g, err)
	}

	hb, err := c.WorkerHeartbeat(ctx, jr.WorkerID, service.HeartbeatRequest{
		Leases: map[string]int{"l424242": 1},
	})
	if err != nil || len(hb.Drop) != 1 {
		t.Fatalf("heartbeat: %+v %v", hb, err)
	}

	ws, err := c.Workers(ctx)
	if err != nil || len(ws) != 1 || ws[0].ID != jr.WorkerID {
		t.Fatalf("workers: %+v %v", ws, err)
	}
	ls, err := c.Leases(ctx)
	if err != nil || len(ls) != 0 {
		t.Fatalf("leases: %+v %v", ls, err)
	}

	if err := c.CompleteLease(ctx, "l424242", service.LeaseReport{WorkerID: jr.WorkerID}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("complete of unknown lease: %v", err)
	}

	if err := c.LeaveWorker(ctx, jr.WorkerID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WorkerHeartbeat(ctx, jr.WorkerID, service.HeartbeatRequest{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("heartbeat after leave: %v", err)
	}

	// A daemon without Dist.Enabled rejects mutating fleet calls but still
	// answers the listings (empty), so sconectl works against any daemon.
	plain := startDaemon(t, service.Config{Workers: 1})
	var apiErr *Error
	if _, err := plain.JoinWorker(ctx, service.JoinRequest{}); !errors.As(err, &apiErr) || apiErr.Code != service.CodeInvalidRequest {
		t.Fatalf("join on non-coordinator: %v", err)
	}
	if ws, err := plain.Workers(ctx); err != nil || len(ws) != 0 {
		t.Fatalf("workers on non-coordinator: %+v %v", ws, err)
	}
}
