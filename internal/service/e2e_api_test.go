package service_test

// Acceptance tests for the versioned API surface itself: /v1 responses
// carry the typed error envelope {"error":{"code","message"}}, and
// unversioned paths do not route.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

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

// TestE2EResultsQueryRejectsUnknownParameters: GET /v1/results refuses a
// query key outside its vocabulary with the typed 400, the way POST
// /v1/jobs refuses unknown fields, instead of answering for the default
// campaign; every key the client encoder emits is inside the vocabulary.
func TestE2EResultsQueryRejectsUnknownParameters(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1})
	for _, query := range []string{"sboxx=3", "runs=64&lane_words=4", "seed=0x1&Seed=0x2"} {
		resp, err := http.Get(c.BaseURL + "/v1/results?" + query)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error service.ErrorBody `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != service.CodeInvalidRequest {
			t.Errorf("GET /v1/results?%s: status %d envelope %+v (%v), want 400 %s",
				query, resp.StatusCode, envelope, err, service.CodeInvalidRequest)
		}
	}

	cycle := 28
	req := e2eRequest(e2eRuns, "per-sbox")
	req.Design.Engine, req.Design.SeparateSbox = "bdd", true
	req.Campaign.Faults[0].Branch, req.Campaign.Faults[0].Cycle = "redundant", &cycle
	vals, err := service.ResultsQueryValues(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := service.ParseResultsQuery(vals)
	if err != nil {
		t.Fatalf("encoded query %q refused: %v", vals.Encode(), err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("query round trip:\n got  %+v\n want %+v", got, req)
	}
}
