package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cipher/gift"
	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/netlist"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadFixture(t *testing.T, name string) *netlist.Module {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := netlist.ReadTextLax(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m
}

// TestSeededViolations runs the full rule set over each seeded-violation
// fixture and requires that exactly the seeded rule fires.
func TestSeededViolations(t *testing.T) {
	for _, tc := range []struct {
		file string
		rule string
	}{
		{"floating_net.nl", "floating-net"},
		{"multi_driven.nl", "multi-driven"},
		{"comb_loop.nl", "comb-loop"},
		{"duplicate_port.nl", "duplicate-port"},
		{"port_width.nl", "port-width"},
		{"dead_gate.nl", "dead-gate"},
		{"const_net.nl", "const-net"},
		{"lambda_cone.nl", "lambda-cone"},
		{"dual_branch.nl", "dual-branch"},
		{"detect_coverage.nl", "detect-coverage"},
		{"ineff_bias.nl", "ineffective-bias"},
		{"flag_key_bias.nl", "flag-key-independence"},
		{"sifa_cond_bias.nl", "sifa-independence"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			m := loadFixture(t, tc.file)
			rep, err := Run(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			diags := rep.Diagnostics()
			if len(diags) == 0 {
				t.Fatalf("no findings, want at least one from rule %s", tc.rule)
			}
			for _, d := range diags {
				if d.Rule != tc.rule {
					t.Errorf("unexpected finding from rule %s: %s", d.Rule, d.Message)
				}
			}
			hit := false
			for _, d := range diags {
				hit = hit || d.Rule == tc.rule
			}
			if !hit {
				t.Errorf("rule %s reported nothing", tc.rule)
			}
		})
	}
}

// TestThreeInOneClean pins the central soundness statement: the paper's
// three-in-one construction passes every rule, for all entropy variants
// and for both ciphers, and so does the correcting scheme built on it.
func TestThreeInOneClean(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   core.Options
		gift64 bool
	}{
		{"present-prime", core.Options{Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime}, false},
		{"present-per-round", core.Options{Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPerRound}, false},
		{"present-per-sbox", core.Options{Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPerSbox}, false},
		{"gift-prime", core.Options{Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime}, true},
		{"present-correct-prime", core.Options{Scheme: core.SchemeCorrect, Entropy: core.EntropyPrime}, false},
		{"present-correct-per-round", core.Options{Scheme: core.SchemeCorrect, Entropy: core.EntropyPerRound}, false},
		{"present-correct-per-sbox", core.Options{Scheme: core.SchemeCorrect, Entropy: core.EntropyPerSbox}, false},
		{"gift-correct-prime", core.Options{Scheme: core.SchemeCorrect, Entropy: core.EntropyPrime}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := present.Spec()
			if tc.gift64 {
				spec = gift.Spec()
			}
			d := core.MustBuild(spec, tc.opts)
			rep, err := Run(d.Mod, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range rep.Results {
				if res.Skipped != "" {
					t.Errorf("rule %s skipped: %s", res.Rule, res.Skipped)
				}
			}
			if !rep.Clean() {
				var buf bytes.Buffer
				rep.WriteText(&buf, true)
				t.Fatalf("three-in-one core is not lint-clean:\n%s", buf.String())
			}
		})
	}
}

// TestWeakSchemesFlagged pins the differential statements: each weakened
// scheme is caught by the rule that encodes the property it lacks.
func TestWeakSchemesFlagged(t *testing.T) {
	build := func(s core.Scheme) *core.Design {
		return core.MustBuild(present.Spec(), core.Options{Scheme: s, Entropy: core.EntropyPrime})
	}

	t.Run("unprotected", func(t *testing.T) {
		rep, err := Run(build(core.SchemeUnprotected).Mod, Options{Rules: []string{"lambda-cone"}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Findings == 0 {
			t.Fatal("lambda-cone must flag the unprotected core")
		}
	})
	t.Run("naive-dup", func(t *testing.T) {
		rep, err := Run(build(core.SchemeNaiveDup).Mod, Options{Rules: []string{"lambda-cone"}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Findings == 0 {
			t.Fatal("lambda-cone must flag the naive duplication core")
		}
	})
	t.Run("acisp", func(t *testing.T) {
		rep, err := Run(build(core.SchemeACISP).Mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var dual []Diagnostic
		for _, d := range rep.Diagnostics() {
			if d.Rule != "dual-branch" {
				t.Errorf("unexpected finding from rule %s: %s", d.Rule, d.Message)
				continue
			}
			dual = append(dual, d)
		}
		if len(dual) != present.BlockBits {
			t.Fatalf("dual-branch findings = %d, want one per state bit (%d)",
				len(dual), present.BlockBits)
		}
		for _, d := range dual {
			if !strings.Contains(d.Message, "shares λ") {
				t.Fatalf("ACISP finding should call out the shared λ: %s", d.Message)
			}
		}
	})
}

// TestSecondRedundantBranchChecked pins that pairing the correcting
// scheme's b2. registers does not exempt them: inverting one b2. register's
// next-state breaks the register invariant of the b2. bits its S-box feeds
// and the vote comparator's cancellation, and dual-branch reports both.
func TestSecondRedundantBranchChecked(t *testing.T) {
	d := core.MustBuild(present.Spec(), core.Options{Scheme: core.SchemeCorrect, Entropy: core.EntropyPrime})
	m := d.Mod
	reg := -1
	for ci := range m.Cells {
		if m.Cells[ci].Kind == netlist.KindDFF && m.NetName(m.Cells[ci].Out) == "b2.state[5]" {
			reg = ci
		}
	}
	if reg < 0 {
		t.Fatal("no b2.state[5] register in the correcting core")
	}
	inv := m.Not(m.Cells[reg].In[0]) // may grow m.Cells: index it afterwards
	m.Cells[reg].In[0] = inv
	rep, err := Run(m, Options{Rules: []string{"dual-branch"}})
	if err != nil {
		t.Fatal(err)
	}
	var nextState, flag bool
	for _, d := range rep.Diagnostics() {
		nextState = nextState || strings.HasPrefix(d.NetName, "b2.") && strings.Contains(d.Message, "next-state")
		flag = flag || strings.Contains(d.Message, "flag is not identically 0")
	}
	if !nextState || !flag {
		var buf bytes.Buffer
		rep.WriteText(&buf, false)
		t.Fatalf("want next-state and flag findings for the mutated b2. register, got:\n%s", buf.String())
	}
}

// TestGolden pins verbose text reports for PRESENT-80 cores so report
// format changes are deliberate: the protected core's clean report, and
// two flagged ones that pin which cells the shared cone walks and BDD
// encoding name: the ACISP core (one dual-branch finding per state bit)
// and the naive core (prover witnesses and the lambda-cone count, capped
// by MaxPerRule to keep the file small).
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		scheme     core.Scheme
		maxPerRule int
		file       string
	}{
		{core.SchemeThreeInOne, 0, "golden_present80_three_in_one_prime.txt"},
		{core.SchemeACISP, 0, "golden_present80_acisp_prime.txt"},
		{core.SchemeNaiveDup, 3, "golden_present80_naive_max3.txt"},
	} {
		t.Run(core.SchemeWire(tc.scheme), func(t *testing.T) {
			d := core.MustBuild(present.Spec(), core.Options{Scheme: tc.scheme, Entropy: core.EntropyPrime})
			rep, err := Run(d.Mod, Options{MaxPerRule: tc.maxPerRule})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.WriteText(&buf, true); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drifted from golden file (rerun with -update if intended):\ngot:\n%s\nwant:\n%s",
					buf.String(), want)
			}
		})
	}
}

// TestProveRuleWitnesses pins what the prove-backed rules report on the
// conditional-bias fixture: the marginal rules stay quiet, and each
// sifa-independence finding carries the concrete key witness.
func TestProveRuleWitnesses(t *testing.T) {
	m := loadFixture(t, "sifa_cond_bias.nl")
	rep, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diags := rep.Diagnostics()
	if len(diags) != 2 {
		t.Fatalf("findings = %d, want 2 (stuck-at-0 and stuck-at-1)", len(diags))
	}
	for _, d := range diags {
		if d.Rule != "sifa-independence" {
			t.Errorf("unexpected rule %s: %s", d.Rule, d.Message)
		}
		if !strings.Contains(d.Message, "key bit key[0]") {
			t.Errorf("finding does not name the key witness: %s", d.Message)
		}
		if d.NetName != "v" {
			t.Errorf("finding at net %q, want the tagged net v", d.NetName)
		}
	}
}

// TestReportByteStable runs the linter twice over a module with findings
// from concurrent rules and requires byte-identical -json output: the
// report order must not depend on goroutine scheduling.
func TestReportByteStable(t *testing.T) {
	d := core.MustBuild(present.Spec(), core.Options{Scheme: core.SchemeACISP, Entropy: core.EntropyPrime})
	run := func() []byte {
		rep, err := Run(d.Mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); !bytes.Equal(first, again) {
			t.Fatalf("run %d produced different JSON:\nfirst:\n%s\nagain:\n%s", i+2, first, again)
		}
	}
}

func TestRuleSelection(t *testing.T) {
	m := loadFixture(t, "dead_gate.nl")

	rep, err := Run(m, Options{Rules: []string{"dead-gate"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Rule != "dead-gate" {
		t.Fatalf("rule selection by ID failed: %+v", rep.Results)
	}

	rep, err = Run(m, Options{Rules: []string{string(CategoryCountermeasure)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Category != CategoryCountermeasure {
			t.Fatalf("category selection leaked rule %s", res.Rule)
		}
	}
	if len(rep.Results) != 7 {
		t.Fatalf("countermeasure category has %d rules, want 7", len(rep.Results))
	}

	if _, err := Run(m, Options{Rules: []string{"no-such-rule"}}); err == nil {
		t.Fatal("unknown rule name must be an error")
	}
}

func TestMaxPerRule(t *testing.T) {
	d := core.MustBuild(present.Spec(), core.Options{Scheme: core.SchemeACISP, Entropy: core.EntropyPrime})
	rep, err := Run(d.Mod, Options{Rules: []string{"dual-branch"}, MaxPerRule: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if len(res.Diagnostics) != 5 {
		t.Fatalf("kept %d diagnostics, want 5", len(res.Diagnostics))
	}
	if res.Truncated != present.BlockBits-5 {
		t.Fatalf("truncated = %d, want %d", res.Truncated, present.BlockBits-5)
	}
	if rep.Findings != present.BlockBits {
		t.Fatalf("findings = %d, want %d (truncation must not hide the count)", rep.Findings, present.BlockBits)
	}
}

// TestRuleMetadata keeps the registry well-formed: unique IDs, docs, and
// a category on every rule.
func TestRuleMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range Rules() {
		if r.ID == "" || r.Doc == "" {
			t.Errorf("rule %+v lacks ID or doc", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Category != CategoryStructural && r.Category != CategoryCountermeasure {
			t.Errorf("rule %s has unknown category %q", r.ID, r.Category)
		}
	}
	if len(seen) != 13 {
		t.Errorf("registry has %d rules, want 13", len(seen))
	}
}
