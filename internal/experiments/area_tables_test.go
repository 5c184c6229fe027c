package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestAreaTablesMatchExperiments recomputes EXPERIMENTS.md's area tables —
// Table II, Table III, the entropy/layout and engine ablations — and the
// whole-design coverage counts at their documented sizes, and requires the
// document to print every one of them.
func TestAreaTablesMatchExperiments(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	printed := func(text string) {
		t.Helper()
		if !strings.Contains(doc, text) {
			t.Errorf("EXPERIMENTS.md lacks %q", text)
		}
	}
	gcs := func(comb, seq, total float64) string { return fmt.Sprintf("%.0f / %.0f / %.0f", comb, seq, total) }

	// Table II, and the flip-flops both designs share.
	t2 := RunTableII(synth.EngineANF)
	naive, ours := t2.Rows[0].Report, t2.Rows[1].Report
	printed(fmt.Sprintf("| naive duplication | 1289 / 1807 / 3096 (1.00×) | %s (1.00×) |\n",
		gcs(naive.Combinational, naive.Sequential, naive.Total())))
	printed(fmt.Sprintf("| our countermeasure | 2290 / 1807 / 4097 (**1.32×**) | %s (**%.2f×**) |\n",
		gcs(ours.Combinational, ours.Sequential, ours.Total()), t2.Rows[1].Ratio))
	if naive.Sequential != ours.Sequential {
		t.Errorf("non-combinational area differs: %v vs %v GE", naive.Sequential, ours.Sequential)
	}
	flops := 0
	for _, c := range core.MustBuild(present.Spec(), core.Options{
		Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime, Engine: synth.EngineANF, Optimize: true,
	}).Mod.Cells {
		if c.Kind == netlist.KindDFF {
			flops++
		}
	}
	printed(fmt.Sprintf("(%.0f GE = %d flip-flops;", ours.Sequential, flops))

	// Table III: one duplicated S-box layer per cipher.
	labels := map[string]string{
		"present": "| PRESENT (16× 4-bit, ANF engine) | 605 → 1397 (**2.3×**) |",
		"aes":     "| AES (16× 8-bit, BDD engine) | 8363 → 15327 (**1.8×**) |",
	}
	for _, r := range RunTableIII().Rows {
		printed(fmt.Sprintf("%s %.0f → %.0f (**%.1f×**) |\n", labels[r.Cipher], r.Naive.Total(), r.Ours.Total(), r.Ratio))
	}

	// The entropy and S-box layout ablation over its naive baseline.
	ab := RunEntropyAblation()
	printed(fmt.Sprintf("vs naive-dup baseline %.0f GE", ab.Baseline.Total()))
	for _, r := range ab.Rows {
		name := map[core.Entropy]string{
			core.EntropyPrime: "prime", core.EntropyPerRound: "per-round", core.EntropyPerSbox: "per-S-box",
		}[r.Variant]
		if r.Layout == "separate" {
			name += ", *separate* S-boxes (ACISP layout)"
		}
		printed(fmt.Sprintf("| %s | %d | %s | %.2f× |\n", name, r.LambdaBitsPerRun,
			gcs(r.Report.Combinational, r.Report.Sequential, r.Report.Total()), r.Ratio))
	}

	// The S-box synthesis engine ablation.
	for _, r := range RunEngineAblation().Rows {
		printed(fmt.Sprintf("| %s | %s | %.0f | %.0f | %.1f× |\n",
			strings.ToUpper(r.Cipher), strings.ToUpper(r.Engine.String()), r.Plain, r.Merged, r.Ratio))
	}

	// Whole-design location coverage: `sim -experiment coverage -sites 400
	// -runs 256`.
	cfg := DefaultConfig()
	cfg.Runs = 256
	cov, err := RunLocationCoverage(cfg, core.SchemeThreeInOne, 400)
	if err != nil {
		t.Fatal(err)
	}
	for reg := core.RegionActual; reg <= core.RegionCompare; reg++ {
		sum := cov.PerRegion[reg]
		if sum == nil {
			continue
		}
		printed(fmt.Sprintf("| %s | %d | %d | %d | %d |\n",
			reg, sum.Locations, sum.EscapingSites, sum.EscapeRuns, sum.DetectedRuns))
	}
}
