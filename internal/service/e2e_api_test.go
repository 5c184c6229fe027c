package service_test

// Acceptance tests for the versioned API surface itself: /v1 responses
// carry the typed error envelope {"error":{"code","message"}}, and
// unversioned paths do not route.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

func TestE2ETypedErrorEnvelope(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1})
	ctx := context.Background()

	// Validation failures are invalid_request.
	_, err := c.Submit(ctx, service.JobRequest{Kind: "explode"})
	var apiErr *client.Error
	if !asClientError(err, &apiErr) || apiErr.Code != service.CodeInvalidRequest || apiErr.StatusCode != 400 {
		t.Fatalf("bad kind: %v", err)
	}

	// Unknown jobs are not_found and match the sentinel through the code,
	// not just the status.
	_, err = c.Get(ctx, "j424242")
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown job: %v", err)
	}
	if !asClientError(err, &apiErr) || apiErr.Code != service.CodeNotFound {
		t.Fatalf("unknown job envelope: %v", err)
	}

	// The raw wire shape is the typed envelope, decodable as documented.
	resp, err := http.Get(c.BaseURL + "/v1/jobs/j424242")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error service.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != service.CodeNotFound || envelope.Error.Message == "" {
		t.Fatalf("raw /v1 envelope %+v", envelope)
	}

	// Only /v1 is served: unversioned paths answer 404.
	for _, path := range []string{"/healthz", "/metrics", "/jobs"} {
		r, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, r.StatusCode)
		}
	}
}

// TestE2EResultsQueryRejectsUnknownParameters: POST /v1/results reads the
// body POST /v1/jobs takes with the same strict decoder, so a field outside
// the JobRequest schema is refused with the typed 400 instead of answering
// for some other campaign, and every campaign the schema expresses — two
// faults at once, a persistent table corruption — can be looked up.
func TestE2EResultsQueryRejectsUnknownParameters(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1, StateDir: t.TempDir()})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, body := range []string{
		`{"kind":"campaign","sboxx":3}`,
		`{"kind":"campaign","campaign":{"runs":64,"lane_words":4,"faults":[{"sbox":13,"bit":2}]}}`,
		`{"kind":"campaign","campaign":{"runs":64,"faults":[{"sbox":13,"bitt":2}]}}`,
	} {
		resp, err := http.Post(c.BaseURL+"/v1/results", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error service.ErrorBody `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != service.CodeInvalidRequest {
			t.Errorf("POST /v1/results %s: status %d envelope %+v (%v), want 400 %s",
				body, resp.StatusCode, envelope, err, service.CodeInvalidRequest)
		}
	}
	var apiErr *client.Error
	if _, err := c.Results(ctx, service.JobRequest{Kind: service.KindLint}); !asClientError(err, &apiErr) || apiErr.Code != service.CodeInvalidRequest {
		t.Errorf("results for a lint request: %v, want 400 %s", err, service.CodeInvalidRequest)
	}

	twoFaults := e2eRequest(e2eRuns, "prime")
	twoFaults.Campaign.Faults = append(twoFaults.Campaign.Faults,
		service.FaultSpec{Branch: "redundant", Sbox: 7, Bit: 1, Model: "bit-flip"})
	persistent := e2eRequest(e2eRuns, "prime")
	persistent.Campaign.Faults = nil
	persistent.Campaign.Persistent = &service.PersistentSpec{Entry: 3, Mask: 0x5}
	for name, req := range map[string]service.JobRequest{"two-fault": twoFaults, "persistent": persistent} {
		view, err := c.Results(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if view.Batches != 5 || view.CachedBatches != 0 || view.Complete {
			t.Fatalf("%s before submission: %+v", name, view)
		}
		got := submitAndWait(t, ctx, c, req)
		if view, err = c.Results(ctx, req); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !view.Complete || view.CachedBatches != 5 || view.Result == nil || *view.Result != got {
			t.Fatalf("%s after submission: %+v, want the job's result %+v", name, view, got)
		}
	}
}
