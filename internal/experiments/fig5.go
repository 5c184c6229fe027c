package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// Figure 5 of the paper: the identical-fault DFA model of Selmke, Heyszl
// and Sigl (FDTC 2016). The *same* stuck-at-0 fault is injected at the
// second LSB of the input of S-box 5, in the last round, in BOTH the
// actual and the redundant computation:
//
//   - naive duplication (Fig 5a): both computations fail identically, the
//     comparator never fires, and whenever the faulted bit was 1 a wrong
//     ciphertext is RELEASED — the attacker collects DFA pairs whose
//     S-box-5 inputs all have their second LSB set (a strong bias);
//   - the three-in-one countermeasure (Fig 5b): the two computations run
//     in complementary encodings, so an identical fault mask can never be
//     ineffective in both branches at once for the same underlying value —
//     every effective fault is sensed and the effect is nullified.

// Fig5 experiment parameters (fixed by the paper).
const (
	Fig5SboxIndex = 5
	Fig5FaultBit  = 1 // second LSB of a 4-bit value
)

// Fig5Panel is the outcome for one design.
type Fig5Panel struct {
	Design   string
	Campaign fault.Result
	// Released histograms the true S-box input over runs where a WRONG
	// ciphertext escaped (the DFA-exploitable set).
	Released *stats.Histogram
	// Ineffective histograms the true S-box input over ineffective
	// runs (the SIFA-exploitable set).
	Ineffective *stats.Histogram
}

// Fig5Result pairs the two panels.
type Fig5Result struct {
	Naive      Fig5Panel
	ThreeInOne Fig5Panel
}

// RunFig5 executes the Figure 5 campaign on both designs.
func RunFig5(cfg Config) (Fig5Result, error) {
	naive, err := runFig5Panel(cfg, buildNaive())
	if err != nil {
		return Fig5Result{}, err
	}
	tio, err := runFig5Panel(cfg, buildThreeInOne())
	if err != nil {
		return Fig5Result{}, err
	}
	return Fig5Result{Naive: naive, ThreeInOne: tio}, nil
}

func runFig5Panel(cfg Config, d *core.Design) (Fig5Panel, error) {
	spec := d.Spec
	cyc := d.LastRoundCycle()
	faults := []fault.Fault{
		fault.At(d.SboxInputNet(core.BranchActual, Fig5SboxIndex, Fig5FaultBit), fault.StuckAt0, cyc),
		fault.At(d.SboxInputNet(core.BranchRedundant, Fig5SboxIndex, Fig5FaultBit), fault.StuckAt0, cyc),
	}
	camp := fault.Campaign{
		Design: d,
		Key:    cfg.Key,
		Faults: faults,
		Runs:   cfg.runs(),
		Seed:   cfg.Seed,
	}
	released := stats.NewHistogram(1 << uint(spec.SboxBits))
	ineffective := stats.NewHistogram(1 << uint(spec.SboxBits))
	res, err := camp.Execute(func(r fault.Run) {
		state := spec.SboxLayerInput(r.PT, cfg.Key, spec.Rounds)
		v := spec.SboxInput(state, Fig5SboxIndex)
		switch r.Outcome {
		case fault.OutcomeEffective:
			released.Add(v)
		case fault.OutcomeIneffective:
			ineffective.Add(v)
		}
	})
	if err != nil {
		return Fig5Panel{}, err
	}
	return Fig5Panel{Design: d.Mod.Name, Campaign: res, Released: released, Ineffective: ineffective}, nil
}

// String renders both panels.
func (r Fig5Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: identical stuck-at-0 at 2nd LSB of S-box %d input in BOTH computations, last round\n", Fig5SboxIndex)
	for _, p := range []Fig5Panel{r.Naive, r.ThreeInOne} {
		fmt.Fprintf(&sb, "\n[%s] %s\n", p.Design, p.Campaign)
		sb.WriteString(p.Released.Bars("S-box input over RELEASED faulty ciphertexts (DFA material)", 40))
		sb.WriteString(p.Ineffective.Bars("S-box input over ineffective runs", 40))
	}
	return sb.String()
}
