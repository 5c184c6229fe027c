package fault

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func contextCampaign(t *testing.T, workers int) *Campaign {
	t.Helper()
	d := goldenDesign(t, core.SchemeThreeInOne)
	net := d.SboxInputNet(core.BranchActual, 13, 2)
	return &Campaign{
		Design: d,
		Key:    goldenKey,
		Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
		Runs:   700,
		Seed:   0x5C09E2021,
		Engine: EngineConfig{Parallelism: workers},
	}
}

// Splitting a campaign into arbitrary batch ranges and summing the partial
// results must reproduce an uninterrupted Execute bit for bit — the
// contract the service's checkpoint/resume rests on.
func TestExecuteBatchesSplitMatchesFullRun(t *testing.T) {
	camp := contextCampaign(t, 2)
	full, err := camp.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := camp.NumBatches()
	if batches != (700+sim.Lanes-1)/sim.Lanes {
		t.Fatalf("NumBatches = %d", batches)
	}
	for _, cut := range []int{0, 1, batches / 2, batches - 1, batches} {
		var sum Result
		for _, rng := range [][2]int{{0, cut}, {cut, batches}} {
			res, err := camp.ExecuteBatchesFunc(context.Background(), rng[0], rng[1], nil, nil)
			if err != nil {
				t.Fatalf("range %v: %v", rng, err)
			}
			sum.Total += res.Total
			for i, n := range res.Counts {
				sum.Counts[i] += n
			}
		}
		if sum != full {
			t.Errorf("cut at %d: summed %v != full %v", cut, sum, full)
		}
	}
}

// The observer stream of a split run must equal the uninterrupted stream.
func TestExecuteBatchesObserverStream(t *testing.T) {
	camp := contextCampaign(t, 3)
	var full []Run
	if _, err := camp.Execute(func(r Run) { full = append(full, r) }); err != nil {
		t.Fatal(err)
	}
	cut := camp.NumBatches() / 2
	var split []Run
	for _, rng := range [][2]int{{0, cut}, {cut, camp.NumBatches()}} {
		if _, err := camp.ExecuteBatchesFunc(context.Background(), rng[0], rng[1], func(r Run) { split = append(split, r) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(split) != len(full) {
		t.Fatalf("split stream has %d runs, full has %d", len(split), len(full))
	}
	for i := range full {
		if split[i] != full[i] {
			t.Fatalf("run %d differs: %+v vs %+v", i, split[i], full[i])
		}
	}
}

// Cancelling mid-campaign returns a whole-batch contiguous prefix plus
// ctx.Err(), and resuming from the recorded boundary completes the campaign
// with counts identical to an uninterrupted run.
func TestExecuteContextCancelAndResume(t *testing.T) {
	camp := contextCampaign(t, 1)
	full, err := camp.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	partial, err := camp.ExecuteBatchesFunc(ctx, 0, camp.NumBatches(), func(r Run) {
		seen++
		if seen == sim.Lanes { // after the first full batch
			cancel()
		}
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial.Total >= full.Total || partial.Total == 0 {
		t.Fatalf("partial total %d not a strict non-empty prefix of %d", partial.Total, full.Total)
	}
	if partial.Total%sim.Lanes != 0 {
		t.Fatalf("partial total %d is not a whole number of batches", partial.Total)
	}

	resumeFrom := partial.Total / sim.Lanes
	rest, err := camp.ExecuteBatchesFunc(context.Background(), resumeFrom, camp.NumBatches(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := partial
	sum.Total += rest.Total
	for i, n := range rest.Counts {
		sum.Counts[i] += n
	}
	if sum != full {
		t.Errorf("resumed sum %v != uninterrupted %v", sum, full)
	}
}

// A context cancelled before the first batch yields an empty partial result.
func TestExecuteContextPreCancelled(t *testing.T) {
	camp := contextCampaign(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := camp.ExecuteBatchesFunc(ctx, 0, camp.NumBatches(), nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Total != 0 {
		t.Fatalf("pre-cancelled run produced %d runs", res.Total)
	}
}

func TestExecuteBatchesRejectsBadRange(t *testing.T) {
	camp := contextCampaign(t, 1)
	for _, rng := range [][2]int{{-1, 2}, {0, camp.NumBatches() + 1}, {3, 2}} {
		if _, err := camp.ExecuteBatchesFunc(context.Background(), rng[0], rng[1], nil, nil); err == nil {
			t.Errorf("range %v accepted", rng)
		}
	}
}
