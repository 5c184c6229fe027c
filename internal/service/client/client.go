// Package client is the Go client for the sconed HTTP API. cmd/sconectl is
// a thin shell around it and the e2e suite drives the daemon through it,
// so the client is exercised against every response shape the server can
// produce. All traffic goes over the versioned /v1 surface with the typed
// error envelope.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// Sentinel errors for the daemon's well-known failure modes. Responses are
// still returned as *Error (carrying status code, envelope code and
// message); these match through errors.Is, so callers branch on condition
// instead of status code:
//
//	if errors.Is(err, client.ErrQueueFull) { backoff() }
var (
	// ErrNotFound: the job, worker or lease ID is unknown to the daemon.
	ErrNotFound = errors.New("not found")
	// ErrQueueFull: the daemon shed the submission; Submit retries these
	// automatically with capped jittered backoff (see RetryPolicy).
	ErrQueueFull = errors.New("job queue full")
	// ErrDraining: the daemon is shutting down and not accepting work.
	ErrDraining = errors.New("daemon draining")
	// ErrCanceled: the job reached StateCanceled; reported by Done.
	ErrCanceled = errors.New("job canceled")
	// ErrConflict: a lease report was rejected because the lease was
	// reassigned to another worker; the reporter discards its work.
	ErrConflict = errors.New("lease conflict")
)

// JobState is a job's lifecycle position — the same type the server uses,
// re-exported so callers of this package need not import internal/service
// to compare states.
type JobState = service.State

// Job states, shared with the server's wire schema.
const (
	StateQueued   JobState = service.StateQueued
	StateRunning  JobState = service.StateRunning
	StateDone     JobState = service.StateDone
	StateFailed   JobState = service.StateFailed
	StateCanceled JobState = service.StateCanceled
)

// Done reports whether st is terminal and, when it is, maps the outcome to
// an error: nil for StateDone, ErrCanceled for StateCanceled, and an error
// carrying the job's failure message for StateFailed.
func Done(st service.JobStatus) (bool, error) {
	switch st.State {
	case StateDone:
		return true, nil
	case StateCanceled:
		return true, ErrCanceled
	case StateFailed:
		return true, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	return false, nil
}

// RetryPolicy bounds Submit's automatic retry of load-shed (ErrQueueFull)
// submissions: capped exponential backoff with jitter, honoring the
// caller's context. The zero value takes the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries. Default 4; 1 disables
	// retrying.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. Default 25ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Default 1s.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// Client talks to one sconed instance.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry tunes Submit's load-shed retry; the zero value uses the
	// package defaults.
	Retry RetryPolicy
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Error is a non-2xx daemon response.
type Error struct {
	StatusCode int
	// Code is the typed envelope code ("not_found", "queue_full", ...);
	// empty on responses without the envelope (e.g. an unrouted path).
	Code    string
	Message string
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("sconed: %d %s: %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("sconed: %d: %s", e.StatusCode, e.Message)
}

// Is maps the response onto the package sentinels — by envelope code when
// present, falling back to the status code — so errors.Is(err, ErrNotFound)
// works without inspecting either.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.Code == service.CodeNotFound || (e.Code == "" && e.StatusCode == http.StatusNotFound)
	case ErrQueueFull:
		return e.Code == service.CodeQueueFull || (e.Code == "" && e.StatusCode == http.StatusTooManyRequests)
	case ErrDraining:
		return e.Code == service.CodeDraining || (e.Code == "" && e.StatusCode == http.StatusServiceUnavailable)
	case ErrConflict:
		return e.Code == service.CodeConflict || (e.Code == "" && e.StatusCode == http.StatusConflict)
	}
	return false
}

func responseError(resp *http.Response) *Error {
	var env struct {
		Error service.ErrorBody `json:"error"`
	}
	e := &Error{StatusCode: resp.StatusCode, Message: resp.Status}
	if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error.Message != "" {
		e.Code, e.Message = env.Error.Code, env.Error.Message
	}
	return e
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	_, err := c.doStatus(ctx, method, path, body, out)
	return err
}

// doStatus performs one JSON round trip and additionally reports the
// status code, for endpoints where 2xx codes are semantic (204 = no lease
// available).
func (c *Client) doStatus(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The daemon content-negotiates /v1/metrics; asking for JSON everywhere
	// keeps this client on the structured views.
	req.Header.Set("Accept", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, responseError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// Submit enqueues a job. Load-shed submissions (ErrQueueFull) are retried
// with capped jittered exponential backoff until the context is done or
// Retry.MaxAttempts is exhausted; the last shed error is then returned, so
// errors.Is(err, ErrQueueFull) still reports a persistently full daemon.
func (c *Client) Submit(ctx context.Context, req service.JobRequest) (service.JobStatus, error) {
	p := c.Retry.withDefaults()
	jitter := rng.NewXoshiro(uint64(time.Now().UnixNano()))
	delay := p.BaseDelay
	var st service.JobStatus
	var err error
	for attempt := 1; ; attempt++ {
		st, err = c.submitOnce(ctx, req)
		if err == nil || !errors.Is(err, ErrQueueFull) || attempt >= p.MaxAttempts {
			return st, err
		}
		// Sleep in [delay/2, delay) so a burst of shed clients spreads out
		// instead of re-submitting in lockstep.
		half := int64(delay / 2)
		d := time.Duration(half + int64(jitter.Uint64()%uint64(half+1)))
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return st, ctx.Err()
		case <-t.C:
		}
		if delay *= 2; delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

func (c *Client) submitOnce(ctx context.Context, req service.JobRequest) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Get fetches a job's status.
func (c *Client) Get(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches every job in submission order.
func (c *Client) List(ctx context.Context) ([]service.JobStatus, error) {
	var out struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Cancel stops a job.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// Results fetches the stored result for the campaign req describes by
// content address — zero simulation server-side. req is the campaign
// request Submit would send.
func (c *Client) Results(ctx context.Context, req service.JobRequest) (service.ResultsView, error) {
	var view service.ResultsView
	err := c.do(ctx, http.MethodPost, "/v1/results", req, &view)
	return view, err
}

// StoredRuns lists the daemon's durable campaign run records.
func (c *Client) StoredRuns(ctx context.Context) ([]service.RunRecord, error) {
	var out struct {
		Runs []service.RunRecord `json:"runs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &out)
	return out.Runs, err
}

// StoredRun fetches one durable run record by job ID.
func (c *Client) StoredRun(ctx context.Context, id string) (service.RunRecord, error) {
	var rec service.RunRecord
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &rec)
	return rec, err
}

// Metrics fetches the daemon's legacy JSON counter snapshot.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	var out map[string]int64
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// MetricsText fetches the daemon's full Prometheus text exposition — every
// registered instrument, including the sim and fault engine families the
// JSON snapshot does not carry.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &Error{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(b))}
	}
	return string(b), nil
}

// Workers lists the coordinator's worker registry.
func (c *Client) Workers(ctx context.Context) ([]service.WorkerInfo, error) {
	var out struct {
		Workers []service.WorkerInfo `json:"workers"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out)
	return out.Workers, err
}

// Leases lists the coordinator's live lease table.
func (c *Client) Leases(ctx context.Context) ([]service.LeaseInfo, error) {
	var out struct {
		Leases []service.LeaseInfo `json:"leases"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/leases", nil, &out)
	return out.Leases, err
}

// JoinWorker registers a worker with the coordinator.
func (c *Client) JoinWorker(ctx context.Context, req service.JoinRequest) (service.JoinResponse, error) {
	var out service.JoinResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers/join", req, &out)
	return out, err
}

// WorkerHeartbeat renews a worker's leases.
func (c *Client) WorkerHeartbeat(ctx context.Context, workerID string, req service.HeartbeatRequest) (service.HeartbeatResponse, error) {
	var out service.HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/heartbeat", req, &out)
	return out, err
}

// LeaveWorker deregisters a worker cleanly; its leases requeue immediately.
func (c *Client) LeaveWorker(ctx context.Context, workerID string) error {
	return c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/leave", nil, nil)
}

// AcquireLease pulls the next lease. The coordinator holds the request
// until one is grantable; nil when none became grantable within one
// heartbeat interval (ask again).
func (c *Client) AcquireLease(ctx context.Context, workerID string) (*service.LeaseGrant, error) {
	var g service.LeaseGrant
	status, err := c.doStatus(ctx, http.MethodPost, "/v1/leases/acquire", service.AcquireRequest{WorkerID: workerID}, &g)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &g, nil
}

// CompleteLease posts a lease's per-batch tallies.
func (c *Client) CompleteLease(ctx context.Context, leaseID string, rep service.LeaseReport) error {
	return c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/complete", rep, nil)
}

// FailLease reports a lease execution error; the coordinator requeues the
// range with backoff.
func (c *Client) FailLease(ctx context.Context, leaseID string, rep service.LeaseReport) error {
	return c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/fail", rep, nil)
}

// Stream follows a job's NDJSON event feed, invoking fn for every event
// until the stream's terminal line (whose final status is returned) or
// until fn returns an error. fn may be nil.
func (c *Client) Stream(ctx context.Context, id string, fn func(service.Event) error) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, responseError(resp)
	}

	var last service.JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return last, fmt.Errorf("bad stream line: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return last, err
			}
		}
		if ev.Job != nil {
			last = *ev.Job
		}
		if ev.Type == "result" {
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	// Stream ended without a terminal line (e.g. the daemon drained);
	// report the last status the caller saw.
	return last, fmt.Errorf("stream ended before job %s finished (state %s)", id, last.State)
}

// Wait polls until the job is terminal.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (service.JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}
