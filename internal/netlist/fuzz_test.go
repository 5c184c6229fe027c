package netlist

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadText hardens the netlist text parser: arbitrary input must never
// panic, and anything that parses must survive a write/re-read round trip.
func FuzzReadText(f *testing.F) {
	var buf bytes.Buffer
	if err := buildSample().WriteText(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("module m\nnets 1\nendmodule\n")
	f.Add("module m\nnets 2\ninput a 1\ncell INV 2 1\noutput y 2\nendmodule\n")
	f.Add("cell AND2")
	f.Add("module m\nnets -3\nendmodule")
	f.Add("# only a comment")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := ReadText(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.WriteText(&out); err != nil {
			t.Fatalf("re-serialise failed: %v", err)
		}
		again, err := ReadText(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(again.Cells) != len(m.Cells) || again.NumNets() != m.NumNets() {
			t.Fatalf("round trip changed structure")
		}
	})
}

// FuzzCones checks the shared cone walks against a brute-force transitive
// closure on random small netlists, both stopping at and crossing
// registers.
func FuzzCones(f *testing.F) {
	f.Add([]byte{})
	for seed := byte(1); seed <= 6; seed++ {
		data := make([]byte, 96)
		for i, x := 0, seed; i < len(data); i++ {
			x = x*109 + 89
			data[i] = x
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, roots := fuzzModule(data)
		fanout := m.Fanout()
		for _, crossDFF := range []bool{false, true} {
			if got, want := m.FanoutCone(fanout, roots, crossDFF), closure(m, roots, crossDFF, true); !slices.Equal(got, want) {
				t.Fatalf("FanoutCone(%v, crossDFF=%v) = %v, closure %v", roots, crossDFF, got, want)
			}
			if got, want := m.FaninCone(roots, crossDFF), closure(m, roots, crossDFF, false); !slices.Equal(got, want) {
				t.Fatalf("FaninCone(%v, crossDFF=%v) = %v, closure %v", roots, crossDFF, got, want)
			}
		}
	})
}

// fuzzModule decodes a small module and a root set from data: primary
// inputs, combinational cells reading any earlier net, and registers whose
// D inputs are wired last, so register feedback loops occur.
func fuzzModule(data []byte) (*Module, []Net) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	picks := make([]int, 1+next()%3) // root selectors, resolved once every net exists
	for i := range picks {
		picks[i] = next()
	}
	m := New("fuzz")
	nets := append(Bus(nil), m.AddInput("x", 1+next()%4)...)
	qs := m.NewNets("q", next()%4)
	nets = append(nets, qs...)
	for i, n := 0, next()%24; i < n; i++ {
		kind := KindConst0 + CellKind(next()%int(KindMux2))
		in := make([]Net, kind.Arity())
		for j := range in {
			in[j] = nets[next()%len(nets)]
		}
		nets = append(nets, m.gate(kind, "g", in...))
	}
	for _, q := range qs {
		m.AddCell(KindDFF, q, nets[next()%len(nets)])
	}
	roots := make([]Net, len(picks))
	for i, p := range picks {
		roots[i] = nets[p%len(nets)]
	}
	return m, roots
}

// closure is the brute-force cone: iterate to a fixpoint over all cells.
// Forward, a cell reading a hot net joins and heats its output; backward,
// the driver of a hot net joins and heats its inputs. A register passes
// heat on only when crossDFF is set.
func closure(m *Module, roots []Net, crossDFF, forward bool) []bool {
	inCone := make([]bool, len(m.Cells))
	hot := make([]bool, m.NumNets()+1)
	for _, n := range roots {
		hot[n] = true
	}
	for changed := true; changed; {
		changed = false
		for ci := range m.Cells {
			c := &m.Cells[ci]
			if !inCone[ci] {
				joins := hot[c.Out] && !forward
				for _, in := range c.Inputs() {
					joins = joins || hot[in] && forward
				}
				if !joins {
					continue
				}
				inCone[ci], changed = true, true
			}
			if c.Kind.IsSequential() && !crossDFF {
				continue
			}
			heat := []Net{c.Out}
			if !forward {
				heat = c.Inputs()
			}
			for _, n := range heat {
				if !hot[n] {
					hot[n], changed = true, true
				}
			}
		}
	}
	return inCone
}
