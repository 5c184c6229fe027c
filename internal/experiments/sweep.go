package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/synth"
)

// RunSweep measures detection coverage across the full protection matrix:
// every scheme x fault model x injection pattern (single computation or
// identical in both), at the Figure 4 location (S-box 13, second MSB, last
// round). It quantifies the paper's Section IV-B claims, including the
// honest corner: identical bit-FLIPS escape every duplication scheme (the
// "inverted fault mask" caveat of Section IV-B-4).

// SweepRow is one configuration's outcome.
type SweepRow struct {
	Scheme   core.Scheme
	Model    fault.Model
	Both     bool // identical fault in both computations
	Campaign fault.Result
}

// Escaped reports the fraction of runs that released a WRONG ciphertext.
func (r SweepRow) Escaped() float64 {
	if r.Campaign.Total == 0 {
		return 0
	}
	return float64(r.Campaign.Effective()) / float64(r.Campaign.Total)
}

// SweepResult is the full matrix.
type SweepResult struct {
	Rows []SweepRow
}

// RunSweep executes the sweep; cfg.Runs applies per configuration.
func RunSweep(cfg Config) (SweepResult, error) {
	schemes := []core.Scheme{core.SchemeNaiveDup, core.SchemeACISP, core.SchemeThreeInOne}
	models := []fault.Model{fault.StuckAt0, fault.StuckAt1, fault.BitFlip}

	var out SweepResult
	for _, scheme := range schemes {
		d := core.MustBuild(present.Spec(), core.Options{
			Scheme: scheme, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
		})
		for _, model := range models {
			for _, both := range []bool{false, true} {
				faults := []fault.Fault{fault.At(
					d.SboxInputNet(core.BranchActual, Fig4SboxIndex, Fig4FaultBit),
					model, d.LastRoundCycle())}
				if both {
					faults = append(faults, fault.At(
						d.SboxInputNet(core.BranchRedundant, Fig4SboxIndex, Fig4FaultBit),
						model, d.LastRoundCycle()))
				}
				camp := fault.Campaign{
					Design: d, Key: cfg.Key, Faults: faults,
					Runs: cfg.runs(), Seed: cfg.Seed,
				}
				res, err := camp.Execute(nil)
				if err != nil {
					return SweepResult{}, err
				}
				out.Rows = append(out.Rows, SweepRow{
					Scheme: scheme, Model: model, Both: both, Campaign: res,
				})
			}
		}
	}
	return out, nil
}

// String renders the coverage matrix.
func (s SweepResult) String() string {
	var sb strings.Builder
	sb.WriteString("Detection-coverage sweep (fault at S-box 13 input bit 2, last round)\n")
	fmt.Fprintf(&sb, "%-24s %-12s %-10s %12s %10s %10s %10s\n",
		"scheme", "model", "pattern", "ineffective", "detected", "escaped", "escape%")
	for _, r := range s.Rows {
		pattern := "single"
		if r.Both {
			pattern = "identical"
		}
		fmt.Fprintf(&sb, "%-24s %-12s %-10s %12d %10d %10d %9.1f%%\n",
			r.Scheme, r.Model, pattern,
			r.Campaign.Ineffective(), r.Campaign.Detected(), r.Campaign.Effective(),
			100*r.Escaped())
	}
	sb.WriteString("\nA non-zero escape column marks a DFA-exploitable configuration.\n")
	sb.WriteString("Identical bit-flips escaping every scheme is the acknowledged\n")
	sb.WriteString("limitation of Section IV-B-4 (the inverted-fault-mask model).\n")
	return sb.String()
}
