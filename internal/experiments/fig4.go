package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// Figure 4 of the paper: SIFA bias experiment. A stuck-at-0 fault is
// injected at the second MSB of the input of S-box 13 during the last
// round of the *actual* computation, across 80k runs with random
// plaintexts (and random λ for the countermeasure). The histogram of the
// true S-box-13 input value over the runs where the fault was ineffective
// is the attacker's SIFA observable:
//
//   - naive duplication (Fig 4a): only inputs whose second MSB is already
//     0 survive — 8 of 16 bins stay empty, SEI is large;
//   - the three-in-one countermeasure (Fig 4b): the faulted wire carries
//     the λ-encoded value, so ineffectiveness no longer depends on the
//     true input — the histogram is statistically uniform.

// Fig4 experiment parameters (fixed by the paper).
const (
	Fig4SboxIndex = 13
	Fig4FaultBit  = 2 // second MSB of a 4-bit value
)

// Fig4Panel is the outcome for one design (one panel of the figure).
type Fig4Panel struct {
	Design    string
	Campaign  fault.Result
	Histogram *stats.Histogram
	// SEIThreshold is the uniformity-acceptance bound for this sample
	// size; Biased reports Histogram.SEI() > SEIThreshold.
	SEIThreshold float64
	Biased       bool
}

// Fig4Result pairs the two panels.
type Fig4Result struct {
	Naive      Fig4Panel
	ThreeInOne Fig4Panel
}

// RunFig4 executes the Figure 4 campaign on both designs.
func RunFig4(cfg Config) (Fig4Result, error) {
	naive, err := runFig4Panel(cfg, buildNaive())
	if err != nil {
		return Fig4Result{}, err
	}
	tio, err := runFig4Panel(cfg, buildThreeInOne())
	if err != nil {
		return Fig4Result{}, err
	}
	return Fig4Result{Naive: naive, ThreeInOne: tio}, nil
}

func runFig4Panel(cfg Config, d *core.Design) (Fig4Panel, error) {
	spec := d.Spec
	net := d.SboxInputNet(core.BranchActual, Fig4SboxIndex, Fig4FaultBit)
	camp := fault.Campaign{
		Design: d,
		Key:    cfg.Key,
		Faults: []fault.Fault{fault.At(net, fault.StuckAt0, d.LastRoundCycle())},
		Runs:   cfg.runs(),
		Seed:   cfg.Seed,
	}
	hist := stats.NewHistogram(1 << uint(spec.SboxBits))
	res, err := camp.Execute(func(r fault.Run) {
		if r.Outcome != fault.OutcomeIneffective {
			return
		}
		state := spec.SboxLayerInput(r.PT, cfg.Key, spec.Rounds)
		hist.Add(spec.SboxInput(state, Fig4SboxIndex))
	})
	if err != nil {
		return Fig4Panel{}, err
	}
	thr := stats.UniformSEIThreshold(hist.Bins(), hist.Total)
	return Fig4Panel{
		Design:       d.Mod.Name,
		Campaign:     res,
		Histogram:    hist,
		SEIThreshold: thr,
		Biased:       hist.SEI() > thr,
	}, nil
}

// String renders both panels as the paper's figure does (ASCII form).
func (r Fig4Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: SIFA bias, stuck-at-0 at 2nd MSB of S-box %d input, last round\n", Fig4SboxIndex)
	for _, p := range []Fig4Panel{r.Naive, r.ThreeInOne} {
		fmt.Fprintf(&sb, "\n[%s] %s\n", p.Design, p.Campaign)
		sb.WriteString(p.Histogram.Bars("ineffective-fault S-box input distribution", 40))
		fmt.Fprintf(&sb, "  empty bins: %d/16, SEI %.3e (uniform threshold %.3e) -> biased: %v\n",
			p.Histogram.EmptyBins(), p.Histogram.SEI(), p.SEIThreshold, p.Biased)
	}
	return sb.String()
}
