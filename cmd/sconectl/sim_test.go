package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/service"
)

func TestSimFig4Tiny(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdSim([]string{"-experiment", "fig4", "-runs", "256"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "256 runs per design") {
		t.Fatalf("expected run summary in output, got:\n%s", out.String())
	}
}

// -json emits the service schema: campaign tallies decode as
// service.CampaignResult and the seed round-trips through the hex U64
// encoding sconed uses on the wire.
func TestSimFig4JSON(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdSim([]string{"-experiment", "fig4", "-runs", "256", "-json"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	var doc struct {
		Experiment string      `json:"experiment"`
		Runs       int         `json:"runs"`
		Seed       service.U64 `json:"seed"`
		Panels     []struct {
			Design   string                 `json:"design"`
			Campaign service.CampaignResult `json:"campaign"`
		} `json:"panels"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Experiment != "fig4" || doc.Runs != 256 || doc.Seed != 0x5C09E2021 {
		t.Fatalf("envelope %+v", doc)
	}
	if len(doc.Panels) != 2 {
		t.Fatalf("expected 2 panels, got %d", len(doc.Panels))
	}
	for _, p := range doc.Panels {
		if p.Campaign.Total != 256 {
			t.Errorf("panel %s: campaign total %d, want 256", p.Design, p.Campaign.Total)
		}
		if p.Campaign.Ineffective+p.Campaign.Detected+p.Campaign.Effective != p.Campaign.Total {
			t.Errorf("panel %s: outcome tallies do not sum to total: %+v", p.Design, p.Campaign)
		}
	}
	if strings.Contains(out.String(), "runs per design") {
		t.Error("-json output mixed with the human summary line")
	}
}

func TestSimSweepJSON(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdSim([]string{"-experiment", "sweep", "-runs", "128", "-json"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	var doc struct {
		Rows []struct {
			Scheme   string                 `json:"scheme"`
			Model    string                 `json:"model"`
			Campaign service.CampaignResult `json:"campaign"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(doc.Rows) == 0 {
		t.Fatal("sweep JSON has no rows")
	}
	for _, r := range doc.Rows {
		if r.Scheme == "" || r.Model == "" || r.Campaign.Total != 128 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestSimRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdSim([]string{"-experiment", "fig99"}, &out, &errb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := cmdSim([]string{"-experiment", "coverage", "-scheme", "none"}, &out, &errb); err == nil {
		t.Fatal("unknown coverage scheme accepted")
	}
	if err := cmdSim([]string{"-runs", "0"}, &out, &errb); err == nil {
		t.Fatal("zero run count accepted")
	}
	if err := cmdSim([]string{"-bogus"}, &out, &errb); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// The shared design flag surface is validated up front: the figure
	// experiments are defined on PRESENT-80 and pin their designs.
	if err := cmdSim([]string{"-spec", "gift64"}, &out, &errb); err == nil {
		t.Fatal("-spec retarget accepted by a pinned experiment")
	}
	if err := cmdSim([]string{"-experiment", "fig4", "-entropy", "per-round"}, &out, &errb); err == nil {
		t.Fatal("-entropy override accepted by a pinned experiment")
	}
	if err := cmdSim([]string{"-experiment", "coverage", "-scheme", "unprotected"}, &out, &errb); err == nil {
		t.Fatal("coverage accepted an unduplicated scheme")
	}
}
