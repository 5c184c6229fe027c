package netlist

import (
	"strings"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindConst0; k < kindCount; k++ {
		got, err := KindFromString(k.String())
		if err != nil || got != k {
			t.Errorf("KindFromString(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := KindFromString("FROB"); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestKindArity(t *testing.T) {
	cases := map[CellKind]int{
		KindConst0: 0, KindConst1: 0, KindBuf: 1, KindInv: 1,
		KindAnd2: 2, KindOr2: 2, KindNand2: 2, KindNor2: 2,
		KindXor2: 2, KindXnor2: 2, KindMux2: 3, KindDFF: 1,
	}
	for k, want := range cases {
		if k.Arity() != want {
			t.Errorf("%s arity = %d, want %d", k, k.Arity(), want)
		}
	}
}

func TestBuilderBasics(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 2)
	y := m.And(in[0], in[1])
	m.AddOutput("y", Bus{y})

	if m.NumNets() != 3 {
		t.Errorf("NumNets = %d, want 3", m.NumNets())
	}
	if m.NumCombinational() != 1 || m.NumDFFs() != 0 {
		t.Errorf("cell counts wrong")
	}
	if d := m.DriverCell(y); d == nil || d.Kind != KindAnd2 {
		t.Errorf("driver of y wrong")
	}
	if m.Driver(in[0]) != -1 {
		t.Errorf("input should be undriven")
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDoubleDrivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double drive")
		}
	}()
	m := New("t")
	in := m.AddInput("x", 1)
	n := m.NewNet("n")
	m.AddCell(KindBuf, n, in[0])
	m.AddCell(KindInv, n, in[0])
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	m := New("t")
	in := m.AddInput("x", 1)
	n := m.NewNet("n")
	m.AddCell(KindAnd2, n, in[0])
}

func TestValidateCatchesFloatingInput(t *testing.T) {
	m := New("t")
	a := m.NewNet("floating")
	b := m.Not(a)
	m.AddOutput("y", Bus{b})
	if err := m.Validate(); err == nil {
		t.Fatal("expected validation error for floating net")
	}
}

func TestValidateCatchesDrivenInputPort(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 1)
	n := m.Not(in[0])
	m.AddInputNets("bad", Bus{n})
	if err := m.Validate(); err == nil {
		t.Fatal("expected validation error for driven input port")
	}
}

func TestValidateCatchesDuplicatePorts(t *testing.T) {
	m := New("t")
	a := m.AddInput("x", 1)
	b := m.AddInput("x", 1)
	m.AddOutput("y", Bus{m.And(a[0], b[0])})
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate input") {
		t.Fatalf("expected duplicate-port error, got %v", err)
	}
}

func TestLevelizeDetectsCombinationalCycle(t *testing.T) {
	m := New("t")
	a := m.NewNet("a")
	b := m.NewNet("b")
	m.AddCell(KindInv, a, b)
	m.AddCell(KindInv, b, a)
	if _, err := m.Levelize(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestLevelizeAllowsCycleThroughDFF(t *testing.T) {
	m := New("t")
	q := m.NewNet("q")
	d := m.Not(q)
	m.AddCell(KindDFF, q, d)
	m.AddOutput("y", Bus{q})
	if _, err := m.Levelize(); err != nil {
		t.Fatalf("register feedback should levelize: %v", err)
	}
}

func TestLevelizeRespectsDependencies(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 4)
	y := m.Xor(m.And(in[0], in[1]), m.Or(in[2], in[3]))
	m.AddOutput("y", Bus{y})
	order, err := m.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	posOf := make(map[int]int)
	for i, ci := range order {
		posOf[ci] = i
	}
	for _, ci := range order {
		for _, inNet := range m.Cells[ci].Inputs() {
			if d := m.Driver(inNet); d >= 0 {
				if posOf[d] >= posOf[ci] {
					t.Fatalf("cell %d scheduled before its driver %d", ci, d)
				}
			}
		}
	}
}

func TestLogicDepth(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 2)
	a := m.And(in[0], in[1]) // depth 1
	b := m.Not(a)            // depth 2
	c := m.Xor(b, in[0])     // depth 3
	m.AddOutput("y", Bus{c})
	d, err := m.LogicDepth()
	if err != nil || d != 3 {
		t.Fatalf("LogicDepth = %d, %v; want 3", d, err)
	}
}

func TestFanout(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 1)
	a := m.Not(in[0])
	m.AddOutput("y", Bus{m.And(a, a)})
	fanout := m.Fanout()
	if len(fanout[in[0]]) != 1 || len(fanout[a]) != 2 {
		t.Fatalf("fanout wrong: %v %v", fanout[in[0]], fanout[a])
	}
}

func TestFaninCone(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 3)
	a := m.And(in[0], in[1])
	b := m.Not(in[2]) // not in the cone of y
	y := m.Buf(a)
	m.AddOutput("y", Bus{y})
	m.AddOutput("z", Bus{b})
	cone := m.FaninCone([]Net{y}, false)
	if !cone[m.Driver(a)] || !cone[m.Driver(y)] {
		t.Fatal("and+buf missing from the cone")
	}
	if cone[m.Driver(b)] {
		t.Fatal("unrelated cell in cone")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 1)
	m.AddOutput("y", Bus{m.Not(in[0])})
	c := m.Clone()
	c.Cells[0].Kind = KindBuf
	c.Inputs[0].Name = "z"
	if m.Cells[0].Kind != KindInv || m.Inputs[0].Name != "x" {
		t.Fatal("clone shares storage with original")
	}
}

func TestSetTag(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 1)
	n := m.Not(in[0])
	if !m.SetTag(n, "probe") {
		t.Fatal("SetTag failed on driven net")
	}
	if m.DriverCell(n).Tag != "probe" {
		t.Fatal("tag not set")
	}
	if m.SetTag(in[0], "nope") {
		t.Fatal("SetTag should fail on undriven net")
	}
}

func TestStats(t *testing.T) {
	m := New("t")
	in := m.AddInput("x", 2)
	q := m.DFF(m.And(in[0], in[1]))
	m.AddOutput("y", Bus{m.Xor(q, m.Const1())})
	s := m.CollectStats()
	if s.Combinational != 2 || s.Sequential != 1 || s.Constants != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if !strings.Contains(s.String(), "XOR2") {
		t.Fatal("stats string missing kinds")
	}
}
