package netlist

import "fmt"

// Bus is an ordered group of nets; index 0 is the least-significant bit.
type Bus []Net

// Clone returns a copy of the bus.
func (b Bus) Clone() Bus {
	out := make(Bus, len(b))
	copy(out, b)
	return out
}

// Reversed returns the bus with bit order reversed (MSB becomes index 0).
func (b Bus) Reversed() Bus {
	out := make(Bus, len(b))
	for i, n := range b {
		out[len(b)-1-i] = n
	}
	return out
}

// Slice returns bits [lo, hi) as a new bus.
func (b Bus) Slice(lo, hi int) Bus {
	return b[lo:hi].Clone()
}

// Concat returns the concatenation b || rest... with b occupying the
// low-order positions.
func (b Bus) Concat(rest ...Bus) Bus {
	out := b.Clone()
	for _, r := range rest {
		out = append(out, r...)
	}
	return out
}

// Permute applies a bit permutation: output position perm[i] receives input
// bit i (matching bits.Permute64).
func (b Bus) Permute(perm []int) Bus {
	if len(perm) != len(b) {
		panic(fmt.Sprintf("netlist: permutation length %d != bus width %d", len(perm), len(b)))
	}
	out := make(Bus, len(b))
	for i, p := range perm {
		out[p] = b[i]
	}
	return out
}

// Nibbles splits the bus into 4-bit groups, low nibble first. The width must
// be a multiple of four.
func (b Bus) Nibbles() []Bus {
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("netlist: bus width %d not a multiple of 4", len(b)))
	}
	out := make([]Bus, len(b)/4)
	for i := range out {
		out[i] = b.Slice(4*i, 4*i+4)
	}
	return out
}

// Bytes splits the bus into 8-bit groups, low byte first. The width must be
// a multiple of eight.
func (b Bus) Bytes() []Bus {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("netlist: bus width %d not a multiple of 8", len(b)))
	}
	out := make([]Bus, len(b)/8)
	for i := range out {
		out[i] = b.Slice(8*i, 8*i+8)
	}
	return out
}

// XorBus returns a new bus of pairwise XORs of a and b.
func (m *Module) XorBus(a, b Bus) Bus {
	checkSameWidth("XorBus", a, b)
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.Xor(a[i], b[i])
	}
	return out
}

// XnorBus returns a new bus of pairwise XNORs of a and b.
func (m *Module) XnorBus(a, b Bus) Bus {
	checkSameWidth("XnorBus", a, b)
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.Xnor(a[i], b[i])
	}
	return out
}

// NotBus returns a new bus with every bit complemented.
func (m *Module) NotBus(a Bus) Bus {
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.Not(a[i])
	}
	return out
}

// MuxBus returns sel ? b : a applied bitwise.
func (m *Module) MuxBus(a, b Bus, sel Net) Bus {
	checkSameWidth("MuxBus", a, b)
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.Mux(a[i], b[i], sel)
	}
	return out
}

// OrReduce returns the OR of all bits of a using a balanced tree. An empty
// bus reduces to constant 0.
func (m *Module) OrReduce(a Bus) Net {
	return m.reduce(KindOr2, a, func() Net { return m.Const0() })
}

// AndReduce returns the AND of all bits of a using a balanced tree. An empty
// bus reduces to constant 1.
func (m *Module) AndReduce(a Bus) Net {
	return m.reduce(KindAnd2, a, func() Net { return m.Const1() })
}

// XorReduce returns the XOR of all bits of a using a balanced tree. An empty
// bus reduces to constant 0.
func (m *Module) XorReduce(a Bus) Net {
	return m.reduce(KindXor2, a, func() Net { return m.Const0() })
}

func (m *Module) reduce(kind CellKind, a Bus, empty func() Net) Net {
	switch len(a) {
	case 0:
		return empty()
	case 1:
		return a[0]
	}
	work := a.Clone()
	for len(work) > 1 {
		next := make(Bus, 0, (len(work)+1)/2)
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, m.gate(kind, "red", work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// ConstBus returns a bus of the given width driven with the low bits of
// value (bit 0 = LSB).
func (m *Module) ConstBus(width int, value uint64) Bus {
	out := make(Bus, width)
	for i := range out {
		if (value>>uint(i))&1 == 1 {
			out[i] = m.Const1()
		} else {
			out[i] = m.Const0()
		}
	}
	return out
}

func checkSameWidth(op string, a, b Bus) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("netlist: %s width mismatch %d vs %d", op, len(a), len(b)))
	}
}
