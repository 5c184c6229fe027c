package fault

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestExecuteBatchesFuncPerBatchResults checks the result store's feed: the
// hook fires once per batch, in order, and the per-batch tallies sum to the
// aggregate Result bit for bit.
func TestExecuteBatchesFuncPerBatchResults(t *testing.T) {
	d := buildDesign(t, core.SchemeNaiveDup)
	net := d.SboxInputNet(core.BranchActual, 13, 2)
	camp := Campaign{
		Design: d, Key: campKey, Runs: 300, Seed: 9, Engine: EngineConfig{Parallelism: 4},
		Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
	}
	type got struct {
		batch int
		res   Result
	}
	var perBatch []got
	res, err := camp.ExecuteBatchesFunc(context.Background(), 0, camp.NumBatches(), nil,
		func(b int, r Result) { perBatch = append(perBatch, got{b, r}) })
	if err != nil {
		t.Fatal(err)
	}
	if len(perBatch) != camp.NumBatches() {
		t.Fatalf("hook fired %d times, want %d", len(perBatch), camp.NumBatches())
	}
	var sum Result
	for i, g := range perBatch {
		if g.batch != i {
			t.Fatalf("hook out of order: call %d saw batch %d", i, g.batch)
		}
		if g.res.Total != camp.BatchRuns(i) {
			t.Fatalf("batch %d carried %d runs, want %d", i, g.res.Total, camp.BatchRuns(i))
		}
		sum.Total += g.res.Total
		for j, n := range g.res.Counts {
			sum.Counts[j] += n
		}
	}
	if sum != res {
		t.Fatalf("per-batch sum %v != aggregate %v", sum, res)
	}

	// Replaying the per-batch results must reproduce the aggregate of a
	// fresh single-worker execution: the determinism contract batch-wise.
	ref, err := camp.ExecuteBatchesFunc(context.Background(), 0, camp.NumBatches(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum != ref {
		t.Fatalf("per-batch sum %v != independent re-execution %v", sum, ref)
	}
}

func TestBatchRuns(t *testing.T) {
	camp := Campaign{Runs: 2*sim.Lanes + 5}
	if n := camp.NumBatches(); n != 3 {
		t.Fatalf("NumBatches = %d, want 3", n)
	}
	for b, want := range []int{sim.Lanes, sim.Lanes, 5} {
		if got := camp.BatchRuns(b); got != want {
			t.Fatalf("BatchRuns(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestEngineVersionEncodesLaneWidth(t *testing.T) {
	// The engine version participates in every stored batch's content
	// address. The lane width determines how runs map onto batches, so the
	// version string pins it; changing sim.Lanes must force a new version.
	if sim.Lanes != 64 {
		t.Fatalf("sim.Lanes changed to %d: bump fault.EngineVersion (%q) and update this test", sim.Lanes, EngineVersion)
	}
	if EngineVersion != "scone-campaign/2-lanes64" {
		t.Fatalf("EngineVersion %q drifted without updating this pin", EngineVersion)
	}
	if EngineVersionLegacy != "scone-campaign/1-lanes64" {
		t.Fatalf("EngineVersionLegacy %q drifted: pre-v2 store digests would be orphaned", EngineVersionLegacy)
	}
}

func TestEngineIDKeepsLegacyDigestsValid(t *testing.T) {
	// Campaigns expressible under engine v1 — transient faults on
	// non-correcting schemes — must keep addressing stored results under the
	// legacy version string, or every pre-existing cache entry goes stale.
	d := buildDesign(t, core.SchemeThreeInOne)
	legacy := Campaign{Design: d, Runs: 1}
	if got := legacy.EngineID(); got != EngineVersionLegacy {
		t.Fatalf("transient campaign EngineID = %q, want legacy %q", got, EngineVersionLegacy)
	}
	persistent := Campaign{Design: d, Runs: 1, Persistent: &PersistentFault{Entry: 0, Mask: 1}}
	if got := persistent.EngineID(); got != EngineVersion {
		t.Fatalf("persistent campaign EngineID = %q, want %q", got, EngineVersion)
	}
	dc := buildDesign(t, core.SchemeCorrect)
	correcting := Campaign{Design: dc, Runs: 1}
	if got := correcting.EngineID(); got != EngineVersion {
		t.Fatalf("correcting campaign EngineID = %q, want %q", got, EngineVersion)
	}
}
