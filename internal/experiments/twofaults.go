package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// Two biased faults (paper §IV-B-3): the paper argues that an attacker who
// can place TWO biased (stuck-at) faults at distinct locations of the
// actual computation still learns nothing — the claim extends from the
// single-fault case because each faulted wire carries a λ-encoded value.
// This experiment injects stuck-at-0 at the Figure-4 and Figure-5
// locations simultaneously (S-box 13 bit 2 and S-box 5 bit 1, both in the
// last round of the actual computation) and histograms both S-boxes' true
// inputs over the ineffective runs.

// TwoFaultsPanel is the outcome for one design.
type TwoFaultsPanel struct {
	Design   string
	Campaign fault.Result
	// HistA / HistB are the ineffective-run input distributions of the
	// two targeted S-boxes.
	HistA, HistB *stats.Histogram
	BiasedA      bool
	BiasedB      bool
}

// TwoFaultsResult pairs naive duplication against the countermeasure.
type TwoFaultsResult struct {
	Naive      TwoFaultsPanel
	ThreeInOne TwoFaultsPanel
}

// RunTwoBiasedFaults executes the experiment on both designs.
func RunTwoBiasedFaults(cfg Config) (TwoFaultsResult, error) {
	naive, err := runTwoFaultsPanel(cfg, buildNaive())
	if err != nil {
		return TwoFaultsResult{}, err
	}
	ours, err := runTwoFaultsPanel(cfg, buildThreeInOne())
	if err != nil {
		return TwoFaultsResult{}, err
	}
	return TwoFaultsResult{Naive: naive, ThreeInOne: ours}, nil
}

func runTwoFaultsPanel(cfg Config, d *core.Design) (TwoFaultsPanel, error) {
	spec := d.Spec
	cyc := d.LastRoundCycle()
	faults := []fault.Fault{
		fault.At(d.SboxInputNet(core.BranchActual, Fig4SboxIndex, Fig4FaultBit), fault.StuckAt0, cyc),
		fault.At(d.SboxInputNet(core.BranchActual, Fig5SboxIndex, Fig5FaultBit), fault.StuckAt0, cyc),
	}
	camp := fault.Campaign{
		Design: d, Key: cfg.Key, Faults: faults,
		Runs: cfg.runs(), Seed: cfg.Seed ^ 0x2F,
	}
	histA := stats.NewHistogram(1 << uint(spec.SboxBits))
	histB := stats.NewHistogram(1 << uint(spec.SboxBits))
	res, err := camp.Execute(func(r fault.Run) {
		if r.Outcome != fault.OutcomeIneffective {
			return
		}
		state := spec.SboxLayerInput(r.PT, cfg.Key, spec.Rounds)
		histA.Add(spec.SboxInput(state, Fig4SboxIndex))
		histB.Add(spec.SboxInput(state, Fig5SboxIndex))
	})
	if err != nil {
		return TwoFaultsPanel{}, err
	}
	return TwoFaultsPanel{
		Design:   d.Mod.Name,
		Campaign: res,
		HistA:    histA,
		HistB:    histB,
		BiasedA:  histA.SEI() > stats.UniformSEIThreshold(histA.Bins(), histA.Total),
		BiasedB:  histB.SEI() > stats.UniformSEIThreshold(histB.Bins(), histB.Total),
	}, nil
}

// String renders both panels.
func (r TwoFaultsResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Two biased faults (§IV-B-3): stuck-at-0 at S-box %d bit %d AND S-box %d bit %d, last round, actual computation\n",
		Fig4SboxIndex, Fig4FaultBit, Fig5SboxIndex, Fig5FaultBit)
	for _, p := range []TwoFaultsPanel{r.Naive, r.ThreeInOne} {
		fmt.Fprintf(&sb, "\n[%s] %s\n", p.Design, p.Campaign)
		fmt.Fprintf(&sb, "  S-box %d ineffective-run distribution: SEI %.3e, empty bins %d/16 -> biased: %v\n",
			Fig4SboxIndex, p.HistA.SEI(), p.HistA.EmptyBins(), p.BiasedA)
		fmt.Fprintf(&sb, "  S-box %d ineffective-run distribution: SEI %.3e, empty bins %d/16 -> biased: %v\n",
			Fig5SboxIndex, p.HistB.SEI(), p.HistB.EmptyBins(), p.BiasedB)
	}
	sb.WriteString("\nWith the countermeasure both distributions stay uniform: two biased\n")
	sb.WriteString("faults buy the attacker a lower ineffective rate, not information.\n")
	return sb.String()
}
