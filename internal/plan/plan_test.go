package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/synth"
)

func buildDesign(t *testing.T, scheme core.Scheme) *core.Design {
	t.Helper()
	d, err := core.Build(present.Spec(), core.Options{
		Scheme: scheme, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSitesParseDeclaredFaultPoints(t *testing.T) {
	d := buildDesign(t, core.SchemeThreeInOne)
	sites := Sites(d)
	// Two branches x 16 S-boxes x 4 bits for protected PRESENT-80.
	if len(sites) != 2*16*4 {
		t.Fatalf("got %d sites, want 128", len(sites))
	}
	seen := map[[3]int]bool{}
	for _, s := range sites {
		if s.Branch < 0 || s.Branch > 1 || s.Sbox < 0 || s.Sbox > 15 || s.Bit < 0 || s.Bit > 3 {
			t.Fatalf("site provenance out of range: %+v", s)
		}
		key := [3]int{s.Branch, s.Sbox, s.Bit}
		if seen[key] {
			t.Fatalf("duplicate site %v", key)
		}
		seen[key] = true
		if want := d.SboxInputNet(core.Branch(s.Branch), s.Sbox, s.Bit); want != s.Net {
			t.Fatalf("site %v net %d, design says %d", key, s.Net, want)
		}
	}
}

func TestSitesCoverCorrectingThirdBranch(t *testing.T) {
	d := buildDesign(t, core.SchemeCorrect)
	sites := Sites(d)
	if len(sites) != 3*16*4 {
		t.Fatalf("got %d sites, want 192", len(sites))
	}
}

func TestCombinationsLexicographic(t *testing.T) {
	got, trunc := Combinations(4, 2, 0)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if trunc || len(got) != len(want) {
		t.Fatalf("got %v (truncated=%v)", got, trunc)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
	if head, trunc := Combinations(4, 2, 3); !trunc || len(head) != 3 {
		t.Fatalf("MaxTuples not honoured: %v truncated=%v", head, trunc)
	}
	if all, trunc := Combinations(3, 3, 0); trunc || len(all) != 1 {
		t.Fatalf("C(3,3): %v", all)
	}
	if none, _ := Combinations(2, 3, 0); none != nil {
		t.Fatalf("k > n must yield nothing, got %v", none)
	}
}

func TestNumTuples(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{8, 2, 28}, {128, 2, 8128}, {5, 0, 1}, {5, 5, 1}, {5, 6, 0}, {52, 5, 2598960},
	}
	for _, c := range cases {
		if got := NumTuples(c.n, c.k); got != c.want {
			t.Fatalf("NumTuples(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	const maxInt = int(^uint(0) >> 1)
	if got := NumTuples(1000, 500); got != maxInt {
		t.Fatalf("expected saturation, got %d", got)
	}
}

func TestNewFiltersAndPlans(t *testing.T) {
	d := buildDesign(t, core.SchemeThreeInOne)
	p, err := New(d, Request{K: 2, Sboxes: []int{13}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) != 8 {
		t.Fatalf("S-box filter kept %d sites, want 8", len(p.Sites))
	}
	if len(p.Tuples) != 28 || p.Truncated {
		t.Fatalf("got %d tuples (truncated=%v), want 28", len(p.Tuples), p.Truncated)
	}
	faults := p.Faults(p.Tuples[0], 0, d.LastRoundCycle())
	if len(faults) != 2 || faults[0].Net == faults[1].Net {
		t.Fatalf("tuple materialised badly: %+v", faults)
	}

	if _, err := New(d, Request{K: 0}); err == nil {
		t.Fatal("K=0 must error")
	}
	if _, err := New(d, Request{K: 9, Sboxes: []int{13}}); err == nil {
		t.Fatal("arity beyond site count must error")
	}
}

// TestNewCapsPlanLength: a plan longer than maxPlanTuples is refused
// before any tuple is enumerated; max tuples counts toward the cap.
func TestNewCapsPlanLength(t *testing.T) {
	d := buildDesign(t, core.SchemeThreeInOne)
	p, err := New(d, Request{K: 2})
	if err != nil {
		t.Fatalf("full k=2 plan: %v", err)
	}
	if len(p.Tuples) != 8128 {
		t.Fatalf("full k=2 plan has %d tuples, want C(128,2) = 8128", len(p.Tuples))
	}
	_, err = New(d, Request{K: 3})
	if err == nil || !strings.Contains(err.Error(), "341376") || !strings.Contains(err.Error(), fmt.Sprint(maxPlanTuples)) {
		t.Fatalf("full k=3 plan: %v, want a refusal naming 341376 placements and the cap", err)
	}
	if p, err = New(d, Request{K: 3, MaxTuples: 1000}); err != nil || len(p.Tuples) != 1000 || !p.Truncated {
		t.Fatalf("k=3 plan cut at 1000 tuples: %v", err)
	}
}

func TestConeRestriction(t *testing.T) {
	d := buildDesign(t, core.SchemeThreeInOne)
	all := Sites(d)
	p, err := New(d, Request{K: 1, Cone: all[0].Net})
	if err != nil {
		t.Fatal(err)
	}
	// The root site itself is always inside its own cone.
	found := false
	for _, s := range p.Sites {
		if s.Net == all[0].Net {
			found = true
		}
	}
	if !found {
		t.Fatal("cone filter dropped its own root site")
	}
	if len(p.Sites) > len(all) {
		t.Fatalf("cone filter grew the site set: %d > %d", len(p.Sites), len(all))
	}

	// A cone net outside the module is a request error naming the net and
	// the module's net range, not a panic.
	nets := fmt.Sprintf("nets 1..%d", d.Mod.NumNets())
	for _, cone := range []netlist.Net{1 << 30, netlist.Net(d.Mod.NumNets() + 1), -1} {
		_, err := New(d, Request{K: 2, Cone: cone})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cone net %d ", cone)) ||
			!strings.Contains(err.Error(), nets) {
			t.Errorf("Cone %d: err = %v, want one naming the net and %s", cone, err, nets)
		}
	}
}

func TestPruneIndex(t *testing.T) {
	inert := func(s int) bool { return s == 3 }
	if got := PruneIndex([]int{0, 1}, inert); got != -1 {
		t.Fatalf("clean tuple pruned at %d", got)
	}
	if got := PruneIndex([]int{1, 3}, inert); got != 1 {
		t.Fatalf("inert member not found: %d", got)
	}
	if got := PruneIndex([]int{0, 2}, nil); got != -1 {
		t.Fatalf("nil oracle must not prune, got %d", got)
	}
}

func TestPersistentPlan(t *testing.T) {
	cs, trunc, err := PersistentPlan(4, nil, 0)
	if err != nil || trunc {
		t.Fatalf("err=%v trunc=%v", err, trunc)
	}
	if len(cs) != 16*15 {
		t.Fatalf("got %d corruptions, want 240", len(cs))
	}
	one, _, err := PersistentPlan(4, []int{5}, 0)
	if err != nil || len(one) != 15 {
		t.Fatalf("entry filter: %d corruptions, err=%v", len(one), err)
	}
	for _, c := range one {
		if c.Entry != 5 || c.Mask == 0 || c.Mask > 15 {
			t.Fatalf("bad corruption %+v", c)
		}
	}
	if head, trunc, _ := PersistentPlan(4, nil, 7); !trunc || len(head) != 7 {
		t.Fatalf("truncation: %d trunc=%v", len(head), trunc)
	}
	if _, _, err := PersistentPlan(4, []int{16}, 0); err == nil {
		t.Fatal("out-of-range entry must error")
	}
	if _, _, err := PersistentPlan(0, nil, 0); err == nil {
		t.Fatal("zero-width S-box must error")
	}
}

func TestPlanMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObservability(reg)
	defer EnableObservability(nil)

	d := buildDesign(t, core.SchemeThreeInOne)
	p, err := New(d, Request{K: 2, Sboxes: []int{13}})
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, tup := range p.Tuples {
		if PruneIndex(tup, func(s int) bool { return s == 0 }) >= 0 {
			pruned++
		}
	}
	if pruned != 7 {
		t.Fatalf("expected 7 tuples containing site 0, got %d", pruned)
	}
	var dump strings.Builder
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scone_plan_tuples_total 28", "scone_plan_pruned_total 7"} {
		if !strings.Contains(dump.String(), want) {
			t.Fatalf("metric %q missing from:\n%s", want, dump.String())
		}
	}
}
