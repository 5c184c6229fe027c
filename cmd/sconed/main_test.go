package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// startDaemon runs the daemon on an ephemeral port and returns its base URL
// plus a cancel func that triggers the graceful-drain path.
func startDaemon(t *testing.T, extraArgs ...string) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	args := append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "30s"}, extraArgs...)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, args, pw, io.Discard)
		pw.Close()
	}()

	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		cancel()
		t.Fatalf("daemon produced no output: %v", sc.Err())
	}
	line := sc.Text()
	addr, ok := strings.CutPrefix(line, "sconed: listening on ")
	if !ok {
		cancel()
		t.Fatalf("unexpected first line %q", line)
	}
	// Keep draining the pipe so later prints don't block the daemon.
	go func() {
		for sc.Scan() {
		}
	}()
	return "http://" + addr, cancel, errCh
}

func TestDaemonServesAndDrains(t *testing.T) {
	base, cancel, errCh := startDaemon(t)
	defer cancel()

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	// Default /v1/metrics is Prometheus text and carries all three layers'
	// families (the daemon wires sim and fault onto the service registry).
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, family := range []string{
		"# TYPE scone_service_jobs_submitted_total counter",
		"scone_sim_evals_total",
		"scone_fault_runs_total",
	} {
		if !strings.Contains(string(text), family) {
			t.Fatalf("metrics missing %q:\n%s", family, text)
		}
	}

	// The JSON snapshot stays available via content negotiation.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := m["jobs_submitted_total"]; !ok {
		t.Fatalf("metrics missing counters: %v", m)
	}

	body := `{"kind":"lint","design":{"cipher":"present80","scheme":"three-in-one"}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %s %+v", resp.Status, st)
	}

	// Signal-equivalent shutdown: cancelling run's context drains and exits.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon did not exit after cancel")
	}
}

// -pprof mounts the Go runtime profiles next to the API; without it the
// debug endpoints do not exist.
func TestDaemonPprofFlag(t *testing.T) {
	base, cancel, errCh := startDaemon(t, "-pprof")
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("pprof cmdline: %s", resp.Status)
	}
	// The API must still be reachable through the wrapping mux.
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("healthz behind pprof mux: %s", resp.Status)
	}
	cancel()
	<-errCh

	base, cancel, errCh = startDaemon(t)
	defer func() {
		cancel()
		<-errCh
	}()
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof exposed without -pprof")
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-addr"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("missing flag value accepted")
	}
	err = run(context.Background(), []string{"stray"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("stray argument: %v", err)
	}
}

func TestDaemonStatePersistsAcrossRestart(t *testing.T) {
	state := t.TempDir()

	base, cancel, errCh := startDaemon(t, "-state", state, "-workers", "1")
	body := `{"kind":"lint","design":{"cipher":"present80","scheme":"three-in-one"}}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	// Wait for the job to finish before restarting.
	deadline := time.Now().Add(time.Minute)
	for {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, st.ID))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		var got struct {
			State string `json:"state"`
		}
		json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if got.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	base2, cancel2, errCh2 := startDaemon(t, "-state", state, "-workers", "1")
	defer func() {
		cancel2()
		<-errCh2
	}()
	r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base2, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		State string `json:"state"`
	}
	json.NewDecoder(r.Body).Decode(&got)
	r.Body.Close()
	if got.State != "done" {
		t.Fatalf("restarted daemon reports job %s as %q, want done", st.ID, got.State)
	}
}

// TestDaemonWorkerMode runs a coordinator and a worker as two run()
// invocations of this binary — the two-terminal deployment from the README
// — and checks the worker pulls leases until the campaign completes.
func TestDaemonWorkerMode(t *testing.T) {
	base, cancel, errCh := startDaemon(t,
		"-dist", "-lease-batches", "1", "-lease-ttl", "5s", "-workers", "1")
	defer func() {
		cancel()
		<-errCh
	}()

	body := `{"kind":"campaign","design":{"cipher":"present80","scheme":"three-in-one"},` +
		`"campaign":{"runs":320,"seed":24696350753,"key":[81985529216486895,33825],` +
		`"faults":[{"sbox":13,"bit":2,"model":"stuck-at-0"}]}}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %s %+v", resp.Status, st)
	}

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	pr, pw := io.Pipe()
	werrCh := make(chan error, 1)
	go func() {
		werrCh <- run(wctx, []string{"-worker", "-join", base, "-name", "w0"}, pw, io.Discard)
		pw.Close()
	}()
	var mu sync.Mutex
	var lines []string
	linesDone := make(chan struct{})
	go func() {
		defer close(linesDone)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
		}
	}()

	deadline := time.Now().Add(time.Minute)
	for {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if got.State == "done" {
			break
		}
		if got.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("distributed job state %q: %s", got.State, got.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}

	wcancel()
	select {
	case err := <-werrCh:
		if err != nil {
			t.Fatalf("worker exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after cancel")
	}
	<-linesDone

	mu.Lock()
	defer mu.Unlock()
	var joined, leased, stopped bool
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "sconed: worker joining "):
			joined = true
		case strings.HasPrefix(l, "sconed: lease l") && strings.Contains(l, st.ID):
			leased = true
		case l == "sconed: worker stopped":
			stopped = true
		}
	}
	if !joined || !leased || !stopped {
		t.Fatalf("worker transcript joined=%v leased=%v stopped=%v:\n%s",
			joined, leased, stopped, strings.Join(lines, "\n"))
	}
}

func TestDaemonWorkerFlagValidation(t *testing.T) {
	err := run(context.Background(), []string{"-worker"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-join") {
		t.Fatalf("-worker without -join: %v", err)
	}
	err = run(context.Background(), []string{"-join", "http://127.0.0.1:1"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-worker") {
		t.Fatalf("-join without -worker: %v", err)
	}
}
