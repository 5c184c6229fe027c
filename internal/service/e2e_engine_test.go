package service_test

// End-to-end acceptance that execution policy is a host setting, never part
// of a campaign: a campaign cached by a daemon simulating at one parallelism
// must be a full store hit when a daemon with another parallelism opens the
// same state directory and receives the same submission — the content
// address knows nothing about how the batches were computed. This is the
// wire-level proof behind fault.EngineConfig's "cached batches replay
// across configurations" contract; fault.TestEngineConfigMatrixBitIdentity
// proves the library side for every lane width × parallelism. Requests no
// longer carry policy at all, so the wire rejects the retired fields while
// state directories that recorded them still resume.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// TestE2EStoreReplayAcrossEngineConfigs caches a campaign on a daemon that
// simulates on one goroutine (narrow), reopens the same state directory as a
// daemon simulating on eight (wide) and resubmits: the second daemon must
// simulate zero runs, replay every batch from the store, produce the
// bit-identical result and record the same campaign digest — and the same
// must hold in the reverse direction.
func TestE2EStoreReplayAcrossEngineConfigs(t *testing.T) {
	cases := []struct {
		name       string
		entropy    string
		cold, warm int // Config.SimWorkers of the first and second daemon
	}{
		{"narrow-then-wide", "per-round", 1, 8},
		{"wide-then-narrow", "per-sbox", 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := t.TempDir()
			daemon := func(simWorkers int) (*service.Service, *httptest.Server, *client.Client) {
				return storeDaemon(t, service.Config{Workers: 1, CheckpointEveryRuns: 64, StateDir: stateDir, SimWorkers: simWorkers})
			}
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
			defer cancel()
			req := e2eRequest(e2eRuns, tc.entropy)

			svc, srv, c := daemon(tc.cold)
			first := submitAndWait(t, ctx, c, req)
			drainDaemon(t, svc, srv)
			if want := directResult(t, e2eRuns, tc.entropy); first != want {
				t.Fatalf("cold run diverged from direct execution:\n got  %+v\n want %+v", first, want)
			}

			svc, srv, c = daemon(tc.warm)
			defer func() { srv.Close(); svc.Close() }()
			second := submitAndWait(t, ctx, c, req)
			if second != first {
				t.Fatalf("replayed result diverged across host policies:\n got  %+v\n want %+v", second, first)
			}
			m, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if sim := m["runs_simulated_total"]; sim != 0 {
				t.Errorf("reconfigured host simulated %d runs, want 0", sim)
			}
			if rep := m["runs_replayed_total"]; rep != e2eRuns {
				t.Errorf("runs_replayed_total = %d, want %d", rep, e2eRuns)
			}

			// Both submissions share one campaign digest: execution policy
			// never enters the content address.
			runs, err := c.StoredRuns(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 2 {
				t.Fatalf("stored %d run records, want 2", len(runs))
			}
			if runs[0].Campaign == "" || runs[0].Campaign != runs[1].Campaign {
				t.Errorf("host policy changed the campaign digest: %q vs %q",
					runs[0].Campaign, runs[1].Campaign)
			}
			if runs[1].SimulatedBatches != 0 || runs[1].ReplayedBatches == 0 {
				t.Errorf("warm run record %+v, want all batches replayed", runs[1])
			}
		})
	}
}

// postJob submits a raw JSON body and returns the response status and the
// typed error envelope's code ("" on success).
func postJob(t *testing.T, baseURL, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error service.ErrorBody `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&envelope)
	return resp.StatusCode, envelope.Error.Code
}

// TestE2ECampaignSpecRejectsBadEngineConfig pins the synchronous-400
// contract for execution policy on the wire: every retired per-request
// policy field is an unknown field, answered with the typed invalid_request
// envelope before anything is queued.
func TestE2ECampaignSpecRejectsBadEngineConfig(t *testing.T) {
	svc, c := startDaemon(t, service.Config{Workers: 1})
	const campaign = `{"kind":"campaign","design":{"cipher":"present80"},"campaign":{"runs":64,"seed":"0x1","key":["0x0","0x0"],"faults":[{"sbox":13,"bit":2}]%s}}`
	const multifault = `{"kind":"multifault","design":{"cipher":"present80"},"multifault":{"k":2,"sboxes":[13],"runs_per_tuple":64,"seed":"0x1","key":["0x0","0x0"]%s}}`
	for _, tc := range []struct{ name, body string }{
		{"campaign workers", fmt.Sprintf(campaign, `,"workers":2`)},
		{"campaign lane_words", fmt.Sprintf(campaign, `,"lane_words":4`)},
		{"campaign batch_runs", fmt.Sprintf(campaign, `,"batch_runs":512`)},
		{"multifault workers", fmt.Sprintf(multifault, `,"workers":2`)},
	} {
		if status, code := postJob(t, c.BaseURL, tc.body); status != http.StatusBadRequest || code != service.CodeInvalidRequest {
			t.Errorf("%s: status %d code %q, want 400 %s", tc.name, status, code, service.CodeInvalidRequest)
		}
	}
	if n := len(svc.List()); n != 0 {
		t.Errorf("rejected submissions queued %d jobs", n)
	}
	// The same bodies without the policy fields are accepted.
	for _, body := range []string{fmt.Sprintf(campaign, ""), fmt.Sprintf(multifault, "")} {
		if status, _ := postJob(t, c.BaseURL, body); status != http.StatusAccepted {
			t.Errorf("policy-free submission: status %d, want 202", status)
		}
	}
}

// legacyJobRecord is jobs/j000000.json as a daemon that still took
// execution policy per request wrote it for a campaign drained mid-flight:
// the request carries workers, lane_words and batch_runs, the state is
// running and the checkpoint covers the first legacyDoneBatches batches.
const legacyJobRecord = `{
  "id": "j000000",
  "request": {
    "kind": "campaign",
    "design": {
      "cipher": "present80",
      "scheme": "three-in-one",
      "entropy": "per-round"
    },
    "campaign": {
      "runs": %d,
      "seed": "0x5c09e2021",
      "key": [
        "0x123456789abcdef",
        "0x8421"
      ],
      "faults": [
        {
          "sbox": 13,
          "bit": 2,
          "model": "stuck-at-0"
        }
      ],
      "workers": 2,
      "lane_words": 4,
      "batch_runs": 512
    }
  },
  "state": "running",
  "checkpoint": {
    "next_batch": %d,
    "counts": %s
  },
  "submitted": "2026-10-16T10:20:52.123456789Z"
}
`

const legacyDoneBatches = 2

// TestE2ELegacyStateDirResumes opens a state directory written before
// execution policy left the request: the recorded job must load, resume from
// its checkpoint (simulating only the remaining batches) and finish with the
// tally of a direct fault.Campaign.Execute. The same daemon answers a fresh
// submission carrying lane_words with 400 invalid_request.
func TestE2ELegacyStateDirResumes(t *testing.T) {
	req := e2eRequest(e2eRuns, "per-round")
	camp, err := service.BuildCampaign(req.Design, req.Campaign, service.EngineDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	prefix, err := camp.ExecuteBatchesFunc(ctx, 0, legacyDoneBatches, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := json.Marshal(service.NewCampaignResult(prefix))
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(stateDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := fmt.Sprintf(legacyJobRecord, e2eRuns, legacyDoneBatches, counts)
	if err := os.WriteFile(filepath.Join(stateDir, "jobs", "j000000.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, srv, c := storeDaemon(t, service.Config{Workers: 1, CheckpointEveryRuns: 64, StateDir: stateDir})
	defer func() { srv.Close(); svc.Close() }()
	final, err := c.Wait(ctx, "j000000", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Result == nil || final.Result.Campaign == nil {
		t.Fatalf("legacy job ended %q (%s)", final.State, final.Error)
	}
	want, err := camp.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := *final.Result.Campaign; got != service.NewCampaignResult(want) {
		t.Fatalf("resumed legacy job diverged from direct execution:\n got  %+v\n want %+v", got, service.NewCampaignResult(want))
	}
	if final.Resumed < 1 {
		t.Errorf("resumed = %d, want >= 1", final.Resumed)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sim, rest := m["runs_simulated_total"], int64(e2eRuns-prefix.Total); sim != rest {
		t.Errorf("resume simulated %d runs, want the %d after the checkpoint", sim, rest)
	}

	body := `{"kind":"campaign","design":{"cipher":"present80"},"campaign":{"runs":64,"seed":"0x1","key":["0x0","0x0"],"faults":[{"sbox":13,"bit":2}],"lane_words":4}}`
	if status, code := postJob(t, c.BaseURL, body); status != http.StatusBadRequest || code != service.CodeInvalidRequest {
		t.Errorf("lane_words submission: status %d code %q, want 400 %s", status, code, service.CodeInvalidRequest)
	}
}

// TestJobLogSkipsBrokenLegacyRecords: a torn legacy record no longer stops
// startup. Beside the valid legacy campaign of TestE2ELegacyStateDirResumes,
// an empty or a half-written jobs/j000001.json is skipped and counted; the
// valid job resumes and finishes with the direct tally, and the legacy files
// are left as they were.
func TestJobLogSkipsBrokenLegacyRecords(t *testing.T) {
	req := e2eRequest(e2eRuns, "per-round")
	camp, err := service.BuildCampaign(req.Design, req.Campaign, service.EngineDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	prefix, err := camp.ExecuteBatchesFunc(ctx, 0, legacyDoneBatches, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := json.Marshal(service.NewCampaignResult(prefix))
	if err != nil {
		t.Fatal(err)
	}
	want, err := camp.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	valid := fmt.Sprintf(legacyJobRecord, e2eRuns, legacyDoneBatches, counts)
	next := strings.Replace(valid, "j000000", "j000001", 1)
	for _, tc := range []struct{ name, broken string }{
		{"empty", ""},
		{"half-written", next[:len(next)/2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := t.TempDir()
			jobs := filepath.Join(stateDir, "jobs")
			files := map[string]string{"j000000.json": valid, "j000001.json": tc.broken}
			if err := os.MkdirAll(jobs, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, body := range files {
				if err := os.WriteFile(filepath.Join(jobs, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			svc, err := service.New(service.Config{Workers: 1, CheckpointEveryRuns: 64, StateDir: stateDir})
			if err != nil {
				t.Fatalf("New with a broken legacy record: %v", err)
			}
			defer svc.Close()
			if _, skipped := svc.Recovered(); skipped != 1 {
				t.Errorf("Recovered reports %d skipped records, want 1", skipped)
			}
			if n := svc.Metrics.JobRecordsSkipped.Value(); n != 1 {
				t.Errorf("scone_service_job_records_skipped_total = %d, want 1", n)
			}
			final := waitService(t, svc, "j000000")
			if final.State != service.StateDone || final.Result == nil || final.Result.Campaign == nil {
				t.Fatalf("legacy job ended %q (%s)", final.State, final.Error)
			}
			if got := *final.Result.Campaign; got != service.NewCampaignResult(want) {
				t.Errorf("resumed legacy job: %+v, want %+v", got, service.NewCampaignResult(want))
			}
			if n := len(svc.List()); n != 1 {
				t.Errorf("%d jobs listed, want the valid legacy job alone", n)
			}
			for name, body := range files {
				if b, err := os.ReadFile(filepath.Join(jobs, name)); err != nil || string(b) != body {
					t.Errorf("legacy %s changed on disk (err %v)", name, err)
				}
			}
		})
	}
}

// waitService polls a service until the job is terminal.
func waitService(t *testing.T, svc *service.Service, id string) service.JobStatus {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
	}
	t.Fatalf("job %s did not finish", id)
	return service.JobStatus{}
}
