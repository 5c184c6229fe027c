package fault

import (
	"slices"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/spn"
	"repro/internal/synth"
)

// reaches reports whether a value change on src can structurally propagate
// to a primary output, crossing registers. It is a necessary condition for
// a fault at src to ever be effective or detected; structural reach does
// not guarantee logical propagation (the fault can still be masked).
func reaches(m *netlist.Module, src netlist.Net) bool {
	cone := m.FanoutCone(m.Fanout(), []netlist.Net{src}, true)
	for i := range m.Outputs {
		for _, n := range m.Outputs[i].Bits {
			if d := m.Driver(n); n == src || d >= 0 && cone[d] {
				return true
			}
		}
	}
	return false
}

func TestReachesBasic(t *testing.T) {
	m := netlist.New("t")
	in := m.AddInput("x", 2)
	a := m.And(in[0], in[1])
	dead := m.Not(in[0]) // not connected to the output
	m.AddOutput("y", netlist.Bus{m.Buf(a)})

	if !reaches(m, in[0]) || !reaches(m, a) {
		t.Fatal("live nets must reach the output")
	}
	if reaches(m, dead) {
		t.Fatal("dangling net must not reach the output")
	}
}

func TestReachesCrossesRegisters(t *testing.T) {
	m := netlist.New("t")
	in := m.AddInput("x", 1)
	q := m.DFF(m.Not(in[0]))
	m.AddOutput("y", netlist.Bus{m.Buf(q)})
	if !reaches(m, in[0]) {
		t.Fatal("reachability must cross DFFs")
	}
}

func TestConeContents(t *testing.T) {
	m := netlist.New("t")
	in := m.AddInput("x", 2)
	a := m.And(in[0], in[1])
	b := m.Xor(a, in[0])
	m.Not(in[1]) // outside the cone of in[0]
	m.AddOutput("y", netlist.Bus{b})
	cone := m.FanoutCone(m.Fanout(), []netlist.Net{in[0]}, true)
	if want := []bool{true, true, false}; !slices.Equal(cone, want) {
		t.Fatalf("cone %v, want %v (the cells driving a and b)", cone, want)
	}
}

// Cross-validation with the dynamic campaign: any fault site that
// produced a detected or effective run must be statically reachable to the
// outputs, and every S-box input of the countermeasure core must reach
// both the ciphertext and the fault flag.
func TestStaticReachConsistentWithCampaign(t *testing.T) {
	d := core.MustBuild(present.Spec(), core.Options{
		Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
	for s := 0; s < 16; s++ {
		for bit := 0; bit < 4; bit++ {
			n := d.SboxInputNet(core.BranchActual, s, bit)
			if !reaches(d.Mod, n) {
				t.Fatalf("S-box %d bit %d statically unobservable", s, bit)
			}
		}
	}

	// A fault at a reachable site produced detections dynamically; a
	// site we know is NOT reachable (fresh dangling net) must show zero
	// detected/effective runs.
	n := d.SboxInputNet(core.BranchActual, 3, 1)
	camp := Campaign{
		Design: d, Key: spn.KeyState{5, 6},
		Faults: []Fault{At(n, StuckAt0, d.LastRoundCycle())},
		Runs:   256, Seed: 11,
	}
	res, err := camp.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() == 0 {
		t.Fatal("reachable site never detected — inconsistent with static reach")
	}
}
