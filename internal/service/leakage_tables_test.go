package service

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// yesNo renders a TVLA verdict the way EXPERIMENTS.md prints it.
func yesNo(leaks bool) string {
	if leaks {
		return "yes"
	}
	return "no"
}

// absT renders a max |t| the way EXPERIMENTS.md prints it.
func absT(t float64) string {
	if math.IsInf(t, 1) {
		return "∞"
	}
	return fmt.Sprintf("%.1f", t)
}

// EXPERIMENTS.md's two leakage tables, pinned. Every row is recomputed
// and must reproduce, bit for bit, the trace counts and max |t| recorded
// with the per-set-bit popcount probe, and the document must print each
// row as recomputed. Samples are small integers, so any change to how the
// probe counts them that moves a single sample moves these values.
func TestLeakageTablesMatchExperiments(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	printed := func(line string) {
		t.Helper()
		if !strings.Contains(doc, line+"\n") {
			t.Errorf("EXPERIMENTS.md lacks the row %q", line)
		}
	}

	// The masked-duplication TVLA table: leakage jobs of 2048 pairs.
	const stuckAt = "stuck-at-0, S-box 13 bit 2, last round"
	jobs := []struct {
		scheme, model, fault     string
		fixed, random, discarded int
		maxAbsT                  float64
	}{
		{"three-in-one", "Hamming distance", "", 2048, 2048, 0, 112.92318229984873},
		{"three-in-one", "Hamming weight", "", 2048, 2048, 0, 111.55247382262483},
		{"masked", "Hamming distance", "", 2048, 2048, 0, 1.4563153267885984},
		{"masked", "Hamming weight", "", 2048, 2048, 0, 0.51743801213507357},
		{"three-in-one", "Hamming distance", stuckAt, 1025, 1057, 2014, 81.868395770544751},
		{"masked", "Hamming distance", stuckAt, 1011, 983, 2102, 1.7088055527890307},
	}
	for _, row := range jobs {
		d, err := BuildDesign(DesignSpec{Cipher: "present80", Scheme: row.scheme, Entropy: "prime"})
		if err != nil {
			t.Fatal(err)
		}
		spec := &LeakageSpec{
			Pairs: 2048, Seed: 0x5C09E2021, Key: testKey,
			Model: "hd", FixedPT: 0x0123456789ABCDEF,
		}
		if row.model == "Hamming weight" {
			spec.Model = "hw"
		}
		faultCol := "—"
		if row.fault != "" {
			faultCol = row.fault
			spec.Faults = []FaultSpec{{Branch: "actual", Sbox: 13, Bit: 2, Model: "stuck-at-0"}}
		}
		ev, err := buildLeakage(d, spec)
		if err != nil {
			t.Fatal(err)
		}
		for !ev.Done() {
			ev.Step()
		}
		res := ev.Result()
		if res.Fixed != row.fixed || res.Random != row.random || res.Discarded != row.discarded ||
			res.MaxAbsT != row.maxAbsT || res.Leaks != (row.maxAbsT > stats.LeakageThreshold) {
			t.Errorf("%s, %s, fault %q: %d/%d kept, %d discarded, max |t| %v; want %d/%d, %d, %v",
				row.scheme, row.model, row.fault, res.Fixed, res.Random, res.Discarded, res.MaxAbsT,
				row.fixed, row.random, row.discarded, row.maxAbsT)
		}
		printed(fmt.Sprintf("| %s | %s | %s | %d / %d | %d | %s | %s |",
			row.scheme, row.model, faultCol, row.fixed, row.random, row.discarded,
			absT(row.maxAbsT), yesNo(res.Leaks)))
	}

	// The §IV-B-2 assessment table: `sconectl sim -experiment leakage` at
	// its defaults, 4096 traces per test.
	cfg := experiments.DefaultConfig()
	cfg.Runs = 2048
	res, err := experiments.RunLeakage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		label   string
		maxAbsT float64
	}{
		{"fixed-vs-random plaintext, unprotected", 127.14676699266892},
		{"fixed-vs-random plaintext, three-in-one", 111.77262999060396},
		{"λ=0 vs λ=1, global power, Hamming distance", 0},
		{"λ=0 vs λ=1, global power, Hamming weight", 0},
		{"λ=0 vs λ=1, EM probe on one branch only", math.Inf(1)},
	}
	if len(res.Rows) != len(tests) {
		t.Fatalf("RunLeakage gave %d rows, the table has %d", len(res.Rows), len(tests))
	}
	for i, want := range tests {
		got := res.Rows[i]
		if got.Traces != 4096 || got.MaxAbsT != want.maxAbsT {
			t.Errorf("%s: %d traces, max |t| %v; want 4096, %v", got.Name, got.Traces, got.MaxAbsT, want.maxAbsT)
		}
		printed(fmt.Sprintf("| %s | %s | %s |", want.label, absT(want.maxAbsT), yesNo(got.Leaks)))
	}
}
