package service

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/prove"
)

// proveFixtureNL mirrors the linter's seeded sifa_cond_bias fixture: both
// outcome marginals are uniform, but detection conditioned on the fault
// being ineffective reduces to AND(din, key) — the prover must return
// dependent verdicts with concrete witnesses at the tagged fault point v.
const proveFixtureNL = `module sifa_cond_bias
nets 6
netname 4 a1
netname 5 v
netname 6 flag
input din 1
input key 2
input lambda 3
output ct 5
output fault 6
cell AND2 4 1 2
cell XOR2 5 3 1 tag=fp.v
cell XOR2 6 3 4
endmodule
`

func TestProveValidation(t *testing.T) {
	bad := []struct {
		name string
		req  JobRequest
	}{
		{"bad model", JobRequest{Kind: KindProve, Prove: &ProveSpec{Models: []string{"gamma-ray"}}}},
		{"negative budget", JobRequest{Kind: KindProve, Prove: &ProveSpec{Budget: -1}}},
		{"budget over the cap", JobRequest{Kind: KindProve, Prove: &ProveSpec{Budget: prove.MaxBudget + 1}}},
		{"budget max int", JobRequest{Kind: KindProve, Prove: &ProveSpec{Budget: math.MaxInt}}},
	}
	for _, tc := range bad {
		if err := tc.req.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Over the cap is refused by the service's submission path with the cap
	// in the message, before a job exists, and by the prover itself.
	s := newTestService(t, Config{Workers: 1})
	if _, err := s.Submit(JobRequest{Kind: KindProve, Prove: &ProveSpec{Budget: prove.MaxBudget + 1}}); err == nil ||
		!strings.Contains(err.Error(), strconv.Itoa(prove.MaxBudget)) {
		t.Errorf("over-cap submission: %v, want an error naming the cap %d", err, prove.MaxBudget)
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("over-cap submission created %d jobs", n)
	}
	if _, err := prove.NewAnalyzer(&netlist.Module{Name: "empty"}, prove.MaxBudget+1); err == nil {
		t.Error("prove.NewAnalyzer accepted a budget over the cap")
	}
	ok := []struct {
		name string
		req  JobRequest
	}{
		{"inline netlist", JobRequest{Kind: KindProve, Design: DesignSpec{Netlist: proveFixtureNL}}},
		{"no spec", JobRequest{Kind: KindProve}},
		{"full spec", JobRequest{Kind: KindProve, Prove: &ProveSpec{Models: []string{"stuck-at-0", "bit-flip"}, Budget: 1 << 16}}},
		{"budget at the cap", JobRequest{Kind: KindProve, Prove: &ProveSpec{Budget: prove.MaxBudget}}},
	}
	for _, tc := range ok {
		if err := tc.req.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}
}

// A prove job over the uploaded conditional-bias netlist must flag the
// seeded dependence with a witness, at every requested model, and report
// pair-granular progress.
func TestProveJobOnUploadedNetlist(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	st, err := s.Submit(JobRequest{
		Kind:   KindProve,
		Design: DesignSpec{Netlist: proveFixtureNL},
		Prove:  &ProveSpec{Models: []string{"stuck-at-0", "stuck-at-1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone || final.Result == nil || final.Result.Prove == nil {
		t.Fatalf("prove job: %s (%s)", final.State, final.Error)
	}
	res := final.Result.Prove
	if res.Module != "sifa_cond_bias" {
		t.Errorf("module %q, want sifa_cond_bias", res.Module)
	}
	if len(res.Locations) != 2 || res.Dependent != 2 || res.Clean() {
		t.Fatalf("want 2 dependent pairs, got %d pairs, %d dependent", len(res.Locations), res.Dependent)
	}
	for _, l := range res.Locations {
		if l.Name != "v" || l.Tag != "fp.v" {
			t.Errorf("location %q tag %q, want v / fp.v", l.Name, l.Tag)
		}
		if l.Verdict != "dependent" {
			t.Errorf("%s aggregate verdict %q, want dependent", l.Model, l.Verdict)
		}
		sifa := false
		for _, c := range l.Checks {
			if c.Check != "sifa-independence" {
				continue
			}
			sifa = true
			if c.Verdict != "dependent" || !strings.Contains(c.Witness, "key bit") {
				t.Errorf("%s sifa check: verdict %q witness %q", l.Model, c.Verdict, c.Witness)
			}
		}
		if !sifa {
			t.Errorf("%s: no sifa-independence check reported", l.Model)
		}
	}
	if final.Progress == nil || final.Progress.Done != 2 || final.Progress.Total != 2 {
		t.Errorf("final progress %+v, want 2/2", final.Progress)
	}
}

// A netlist with no fault-point tags has nothing to prove; the job must
// fail synchronously with a descriptive error rather than report an empty
// (vacuously clean) result.
func TestProveJobWithoutFaultPointsFails(t *testing.T) {
	noTags := strings.ReplaceAll(proveFixtureNL, " tag=fp.v", "")
	s := newTestService(t, Config{Workers: 1})
	st, err := s.Submit(JobRequest{Kind: KindProve, Design: DesignSpec{Netlist: noTags}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "fault points") {
		t.Fatalf("tagless prove job: %s (%s)", final.State, final.Error)
	}
}
