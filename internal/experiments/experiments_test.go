package experiments

import (
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/synth"
)

// quickCfg shrinks campaigns enough for unit testing while keeping the
// statistical shapes decidable.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Runs = 2048
	cfg.Quick = true
	return cfg
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Panel (a): naive duplication leaks — exactly the 8 values with
	// bit 2 clear survive, and the SEI classifier flags bias.
	if !res.Naive.Biased {
		t.Error("naive panel must be biased")
	}
	if res.Naive.Histogram.EmptyBins() != 8 {
		t.Errorf("naive panel empty bins = %d, want 8", res.Naive.Histogram.EmptyBins())
	}
	for v, c := range res.Naive.Histogram.Counts {
		hasBit2 := v&(1<<Fig4FaultBit) != 0
		if hasBit2 && c != 0 {
			t.Errorf("value %X with the faulted bit set appeared among ineffective runs", v)
		}
	}
	// Panel (b): the countermeasure removes the bias entirely.
	if res.ThreeInOne.Biased {
		t.Error("three-in-one panel must be statistically uniform")
	}
	if res.ThreeInOne.Histogram.EmptyBins() != 0 {
		t.Errorf("three-in-one panel has empty bins")
	}
	// No faulty ciphertext may escape either duplication scheme.
	if res.Naive.Campaign.Effective() != 0 || res.ThreeInOne.Campaign.Effective() != 0 {
		t.Error("single-branch faults must never escape duplication")
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Error("report rendering broken")
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	n, ours := res.Naive, res.ThreeInOne
	// Naive duplication: the comparator never fires and roughly half
	// the runs release a WRONG ciphertext.
	if n.Campaign.Detected() != 0 {
		t.Errorf("identical faults must not be detected by naive duplication (%d)", n.Campaign.Detected())
	}
	if n.Campaign.Effective() == 0 {
		t.Error("naive duplication must release faulty ciphertexts")
	}
	// The released set is the biased half: every value has the fault
	// bit set.
	for v, c := range n.Released.Counts {
		if v&(1<<Fig5FaultBit) == 0 && c != 0 {
			t.Errorf("released run with fault bit clear: %X", v)
		}
	}
	// Three-in-one: complementary encodings sense every identical
	// stuck-at — nothing is released, nothing escapes.
	if ours.Campaign.Detected() != ours.Campaign.Total {
		t.Errorf("three-in-one should detect all %d runs, detected %d",
			ours.Campaign.Total, ours.Campaign.Detected())
	}
	if ours.Released.Total != 0 {
		t.Error("three-in-one must not release faulty ciphertexts")
	}
}

func TestTableIIShape(t *testing.T) {
	res := RunTableII(synth.EngineANF)
	naive, ours := res.Rows[0], res.Rows[1]
	// The paper's two structural claims: identical non-combinational
	// area, and a total overhead near 1.3x (we accept 1.2-1.6 for an
	// independent synthesis flow).
	if naive.Report.Sequential != ours.Report.Sequential {
		t.Errorf("non-combinational GE differ: %.0f vs %.0f",
			naive.Report.Sequential, ours.Report.Sequential)
	}
	if ours.Ratio < 1.2 || ours.Ratio > 1.6 {
		t.Errorf("total overhead ratio %.2f outside the paper's shape", ours.Ratio)
	}
	if ours.Report.Combinational <= naive.Report.Combinational {
		t.Error("the countermeasure must cost combinational area")
	}
}

func TestTableIIIShape(t *testing.T) {
	res := RunTableIII()
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Paper: 2.3x (PRESENT) and 1.8x (AES). Accept 1.5-2.6.
		if row.Ratio < 1.5 || row.Ratio > 2.6 {
			t.Errorf("%s S-box layer ratio %.2f outside the paper's shape", row.Cipher, row.Ratio)
		}
		if row.Ours.Total() <= row.Naive.Total() {
			t.Errorf("%s merged layer should cost more than plain", row.Cipher)
		}
	}
	// AES S-boxes must be far more expensive than PRESENT's.
	if res.Rows[1].Naive.Total() < 4*res.Rows[0].Naive.Total() {
		t.Error("AES S-box layer should dwarf PRESENT's")
	}
}

func TestSweepMatrix(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 512
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 { // 3 schemes x 3 models x 2 patterns
		t.Fatalf("expected 18 rows, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		switch {
		case !r.Both:
			// Single-computation faults never escape any duplication.
			if r.Campaign.Effective() != 0 {
				t.Errorf("%v/%v single: %d escapes", r.Scheme, r.Model, r.Campaign.Effective())
			}
		case r.Model == fault.BitFlip:
			// Identical flips escape every scheme (the §IV-B-4 caveat).
			if r.Campaign.Effective() != r.Campaign.Total {
				t.Errorf("%v identical flip: expected full escape", r.Scheme)
			}
		case r.Scheme == core.SchemeThreeInOne:
			// Identical stuck-ats are fully detected by the countermeasure.
			if r.Campaign.Detected() != r.Campaign.Total {
				t.Errorf("three-in-one identical %v: %d/%d detected",
					r.Model, r.Campaign.Detected(), r.Campaign.Total)
			}
		default:
			// ... and partially escape the weaker schemes.
			if r.Campaign.Effective() == 0 {
				t.Errorf("%v identical %v: expected escapes", r.Scheme, r.Model)
			}
		}
	}
}

func TestEntropyAblationShape(t *testing.T) {
	res := RunEntropyAblation()
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	prime := res.Rows[0]
	if prime.Report.Sequential != res.Baseline.Sequential {
		t.Error("prime variant must add no sequential area")
	}
	perRound, perSbox := res.Rows[1], res.Rows[2]
	if perRound.Report.Sequential <= res.Baseline.Sequential {
		t.Error("per-round variant must add λ registers")
	}
	if perSbox.Report.Total() <= perRound.Report.Total() {
		t.Error("per-sbox must cost more than per-round")
	}
	if perRound.LambdaBitsPerRun != 31 || perSbox.LambdaBitsPerRun != 31*16 {
		t.Error("λ consumption accounting wrong")
	}
}

func TestEngineAblationShape(t *testing.T) {
	res := RunEngineAblation()
	byKey := map[string]EngineAblationRow{}
	for _, r := range res.Rows {
		byKey[r.Cipher+"/"+r.Engine.String()] = r
	}
	// The BDD engine must beat ANF on the 8-bit AES S-box (that is why
	// Table III uses it), while tiny 4-bit S-boxes are fine either way.
	if byKey["aes/bdd"].Merged >= byKey["aes/anf"].Merged {
		t.Error("BDD should be cheaper than ANF for the AES merged S-box")
	}
	for _, r := range res.Rows {
		if r.Plain <= 0 || r.Merged <= r.Plain {
			t.Errorf("%s/%s: implausible areas plain=%.0f merged=%.0f",
				r.Cipher, r.Engine, r.Plain, r.Merged)
		}
	}
}

func TestTwoBiasedFaultsShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 4096
	res, err := RunTwoBiasedFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Naive duplication: both targeted S-box distributions are biased.
	if !res.Naive.BiasedA || !res.Naive.BiasedB {
		t.Errorf("naive panel should be biased at both locations (%v, %v)",
			res.Naive.BiasedA, res.Naive.BiasedB)
	}
	// Countermeasure: both stay uniform, and nothing escapes.
	if res.ThreeInOne.BiasedA || res.ThreeInOne.BiasedB {
		t.Errorf("three-in-one panel should be uniform at both locations (SEI %v, %v)",
			res.ThreeInOne.HistA.SEI(), res.ThreeInOne.HistB.SEI())
	}
	if res.Naive.Campaign.Effective() != 0 || res.ThreeInOne.Campaign.Effective() != 0 {
		t.Error("single-computation faults must never escape duplication")
	}
	// Two faults shrink the ineffective rate to about a quarter.
	frac := float64(res.ThreeInOne.Campaign.Ineffective()) / float64(res.ThreeInOne.Campaign.Total)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("ineffective fraction %.2f, expected ~0.25", frac)
	}
}

func TestLocationCoverageNoEscapesInComputations(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 64
	res, err := RunLocationCoverage(cfg, core.SchemeThreeInOne, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.EscapesOutsideCompareStage(); got != 0 {
		t.Fatalf("%d fault sites inside a computation released wrong ciphertexts", got)
	}
	if len(res.Sites) != 60 {
		t.Fatalf("sampled %d sites, want 60", len(res.Sites))
	}
}

func TestLeakageAssessmentShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 256
	res, err := RunLeakage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(res.Rows))
	}
	if !res.Rows[0].Leaks || !res.Rows[1].Leaks {
		t.Error("unmasked cipher should fail fixed-vs-random TVLA")
	}
	if res.Rows[2].Leaks || res.Rows[3].Leaks {
		t.Error("global power models must not distinguish λ (branch swap balance)")
	}
	if !res.Rows[4].Leaks {
		t.Error("a branch-local EM probe must distinguish λ")
	}
}

// TestLeakageTableColumnsAlign: the rendered assessment names both power
// models in its title, and every row's traces column starts at the same
// rune offset as the header's, however long or non-ASCII the row's name.
func TestLeakageTableColumnsAlign(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 64
	res, err := RunLeakage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(res.String(), "\n")
	if title := lines[0]; !strings.Contains(title, "Hamming-distance") || !strings.Contains(title, "Hamming-weight") {
		t.Errorf("title %q does not name both power models", title)
	}
	// The traces field is right-aligned in 8 columns, so its column starts
	// 8 runes before the end of the header's "traces" or of a row's count.
	colStart := func(line, name, token string) int {
		rest, ok := strings.CutPrefix(line, name)
		i := strings.Index(rest, token)
		if !ok || i < 0 {
			t.Fatalf("line %q lacks %q after %q", line, token, name)
		}
		return utf8.RuneCountInString(name+rest[:i+len(token)]) - 8
	}
	want := colStart(lines[1], "test", "traces")
	for i, row := range res.Rows {
		if got := colStart(lines[2+i], row.Name, strconv.Itoa(row.Traces)); got != want {
			t.Errorf("row %q: traces column starts at rune %d, the header's at %d", row.Name, got, want)
		}
	}
}

func TestPersistentFaultNeverEscapes(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 512
	res, err := RunPersistent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Campaign.Effective() != 0 {
			t.Errorf("%v: persistent fault escaped %d times", row.Scheme, row.Campaign.Effective())
		}
		// Persisting across 31 rounds, the fault is effective (and
		// detected) in virtually every run.
		if row.Campaign.Detected() < row.Campaign.Total*99/100 {
			t.Errorf("%v: only %d/%d detected", row.Scheme, row.Campaign.Detected(), row.Campaign.Total)
		}
	}
}

// The SIFA bias must stay removed under every entropy variant — this
// guards the per-round/per-S-box domain-conversion logic, where a subtle
// encoding bug would silently re-introduce the Figure 4(a) bias.
func TestFig4FlatAcrossEntropyVariants(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 4096
	for _, entropy := range []core.Entropy{core.EntropyPerRound, core.EntropyPerSbox} {
		d := core.MustBuild(present.Spec(), core.Options{
			Scheme: core.SchemeThreeInOne, Entropy: entropy, Engine: synth.EngineANF,
		})
		panel, err := runFig4Panel(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		if panel.Biased {
			t.Errorf("%v: SIFA bias re-appeared (SEI %.3e, threshold %.3e)",
				entropy, panel.Histogram.SEI(), panel.SEIThreshold)
		}
		if panel.Campaign.Effective() != 0 {
			t.Errorf("%v: %d escapes", entropy, panel.Campaign.Effective())
		}
	}
}

// Identical-fault detection must also hold for the richer variants.
func TestFig5DetectionAcrossEntropyVariants(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1024
	for _, entropy := range []core.Entropy{core.EntropyPerRound, core.EntropyPerSbox} {
		d := core.MustBuild(present.Spec(), core.Options{
			Scheme: core.SchemeThreeInOne, Entropy: entropy, Engine: synth.EngineANF,
		})
		panel, err := runFig5Panel(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		if panel.Campaign.Detected() != panel.Campaign.Total {
			t.Errorf("%v: %d/%d detected", entropy, panel.Campaign.Detected(), panel.Campaign.Total)
		}
	}
}
