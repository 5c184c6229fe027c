package fault

import (
	"fmt"

	"repro/internal/core"
)

// PersistentFault is the PFA fault model (persistent fault analysis): one
// entry of the cipher's S-box lookup table is corrupted once, before any
// encryption, and the corruption survives across every run of the campaign.
// Because the table is shared by all branches of a duplicated design, every
// branch computes the same wrong value and detect-only comparators never
// fire — exactly the bypass the PFA literature describes.
type PersistentFault struct {
	// Entry is the corrupted table index, 0 <= Entry < 2^SboxBits.
	Entry int
	// Mask is XORed into the entry's value; it must be non-zero and fit
	// in SboxBits bits.
	Mask uint64
}

// String describes the corruption.
func (p PersistentFault) String() string {
	return fmt.Sprintf("persistent sbox[%d] ^= %#x", p.Entry, p.Mask)
}

// Validate checks the corruption against a design's S-box geometry.
func (p PersistentFault) Validate(d *core.Design) error {
	size := 1 << d.Spec.SboxBits
	if p.Entry < 0 || p.Entry >= size {
		return fmt.Errorf("fault: persistent entry %d outside the %d-entry S-box", p.Entry, size)
	}
	if p.Mask == 0 || p.Mask >= uint64(size) {
		return fmt.Errorf("fault: persistent mask %#x must be a non-zero %d-bit value", p.Mask, d.Spec.SboxBits)
	}
	return nil
}

// simDesign returns the design the campaign simulates: the caller's design
// as-is for transient campaigns, or a rebuild over the corrupted S-box
// table for persistent ones. The corruption flows through the normal S-box
// synthesis into the compiled simulator — no injector involvement, so the
// injector purity contract is untouched — while Campaign.Design keeps the
// clean spec the classification references. The rebuild is memoised so
// chunked ExecuteBatchesFunc calls compile it once.
func (c *Campaign) simDesign() (*core.Design, error) {
	if c.Persistent == nil {
		return c.Design, nil
	}
	if c.persistentDesign != nil {
		return c.persistentDesign, nil
	}
	if len(c.Faults) > 0 {
		// Transient faults address nets of the clean build; the corrupted
		// rebuild may number its nets differently, so mixing the models
		// in one campaign would inject at silently wrong locations.
		return nil, fmt.Errorf("fault: a persistent campaign cannot also inject transient faults")
	}
	p := *c.Persistent
	if err := p.Validate(c.Design); err != nil {
		return nil, err
	}
	spec := *c.Design.Spec
	spec.Sbox = append([]uint64(nil), spec.Sbox...)
	spec.Sbox[p.Entry] ^= p.Mask
	d, err := core.Build(&spec, c.Design.Opts)
	if err != nil {
		return nil, fmt.Errorf("fault: rebuild with persistent corruption: %w", err)
	}
	c.persistentDesign = d
	return d, nil
}
