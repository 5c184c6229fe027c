// Package plan generates, prunes and sizes multi-fault injection campaigns.
//
// A k-fault plan enumerates every k-tuple of a design's declared fault
// points (the "fp."-tagged S-box input drivers core.Build marks), in a
// deterministic lexicographic order, so a campaign over the plan can be
// checkpointed and resumed by tuple index. Adaptive pruning cheapens the
// quadratic (and worse) blow-up: a tuple is skipped when one of its member
// sites is already known to be inert — a singleton location that cannot
// influence the outputs contributes nothing to any tuple containing it.
// Pruning is a per-tuple execution-time decision, never a re-numbering:
// tuple indices are stable whether or not the inert oracle improves between
// a checkpoint and its resume.
//
// The package also enumerates persistent-fault corruptions (the PFA model):
// every (table entry, XOR mask) pair of the cipher's S-box, which the fault
// engine applies through fault.PersistentFault.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/prove"
)

// Site is one candidate injection location: a declared fault point of the
// built design, with its tag parsed back into (branch, sbox, bit)
// provenance for filtering and reports.
type Site struct {
	Net    netlist.Net `json:"net"`
	Name   string      `json:"name"`
	Tag    string      `json:"tag"`
	Branch int         `json:"branch"`
	Sbox   int         `json:"sbox"`
	Bit    int         `json:"bit"`
}

// String renders the site the way reports name fault points.
func (s Site) String() string {
	return fmt.Sprintf("b%d.sbox%02d.b%d(net%d)", s.Branch, s.Sbox, s.Bit, s.Net)
}

// parseTag decodes "fp.b<branch>.sbox<NN>.b<bit>". It returns false for
// foreign tags rather than erroring: modules may carry other annotations.
func parseTag(tag string) (branch, sbox, bit int, ok bool) {
	rest, found := strings.CutPrefix(tag, prove.TagPrefix)
	if !found {
		return 0, 0, 0, false
	}
	if n, err := fmt.Sscanf(rest, "b%d.sbox%d.b%d", &branch, &sbox, &bit); err != nil || n != 3 {
		return 0, 0, 0, false
	}
	return branch, sbox, bit, true
}

// Sites collects the design's declared fault points in cell order — the
// same order prove.TaggedLocations reports them, so plan indices, prover
// reports and lint findings all name locations consistently.
func Sites(d *core.Design) []Site {
	var sites []Site
	for _, loc := range prove.TaggedLocations(d.Mod) {
		b, s, bit, ok := parseTag(loc.Tag)
		if !ok {
			continue
		}
		sites = append(sites, Site{Net: loc.Net, Name: loc.Name, Tag: loc.Tag, Branch: b, Sbox: s, Bit: bit})
	}
	return sites
}

// Request configures k-fault plan generation.
type Request struct {
	// K is the tuple arity; 1 <= K <= len(sites) after filtering.
	K int
	// Sboxes, when non-empty, keeps only sites in the listed S-box columns
	// (all branches) — the standard way to keep C(n, k) small.
	Sboxes []int
	// Cone, when non-zero, keeps only sites inside the forward
	// (observability) cone of that net, crossing registers: the tuples
	// then model an adversary whose faults all interact with one chosen
	// signal. It must be one of the design's nets.
	Cone netlist.Net
	// MaxTuples, when positive, truncates enumeration after that many
	// tuples; Plan.Truncated records that the cut happened.
	MaxTuples int
}

// maxPlanTuples caps a plan's length. New refuses a request that would
// plan more placements, after MaxTuples, before it enumerates any. It is 8×
// the full k=2 plan over the protected PRESENT-80 core's 128 sites (8,128)
// and 3.6× the correcting core's 18,336.
const maxPlanTuples = 1 << 16

// Plan is a generated k-fault campaign plan.
type Plan struct {
	// Sites are the filtered candidate locations; Tuples index into it.
	Sites []Site
	K     int
	// Tuples lists the k-combinations in lexicographic order over site
	// indices. The order is the plan's checkpoint contract: a resumed
	// campaign continues at the recorded tuple index.
	Tuples [][]int
	// Truncated reports that MaxTuples cut the enumeration short.
	Truncated bool
}

// New generates the plan for a built design. A plan longer than
// maxPlanTuples is refused unenumerated.
func New(d *core.Design, req Request) (*Plan, error) {
	sites := Sites(d)
	if len(req.Sboxes) > 0 {
		keep := make(map[int]bool, len(req.Sboxes))
		for _, s := range req.Sboxes {
			keep[s] = true
		}
		sites = filterSites(sites, func(s Site) bool { return keep[s.Sbox] })
	}
	if req.Cone != 0 {
		m := d.Mod
		if req.Cone < 1 || int(req.Cone) > m.NumNets() {
			return nil, fmt.Errorf("plan: cone net %d is outside the nets 1..%d of module %q",
				req.Cone, m.NumNets(), m.Name)
		}
		cone := m.FanoutCone(m.Fanout(), []netlist.Net{req.Cone}, true)
		sites = filterSites(sites, func(s Site) bool {
			drv := m.Driver(s.Net)
			return s.Net == req.Cone || drv >= 0 && cone[drv]
		})
	}
	if req.K < 1 {
		return nil, fmt.Errorf("plan: tuple arity %d must be at least 1", req.K)
	}
	if req.K > len(sites) {
		return nil, fmt.Errorf("plan: arity %d exceeds the %d candidate sites", req.K, len(sites))
	}
	n := NumTuples(len(sites), req.K)
	if req.MaxTuples > 0 {
		n = min(n, req.MaxTuples)
	}
	if n > maxPlanTuples {
		return nil, fmt.Errorf("plan: %d placements exceed the cap of %d; narrow the S-boxes or the cone, or set max tuples", n, maxPlanTuples)
	}
	tuples, truncated := Combinations(len(sites), req.K, req.MaxTuples)
	met.Load().countTuples(len(tuples))
	return &Plan{Sites: sites, K: req.K, Tuples: tuples, Truncated: truncated}, nil
}

func filterSites(sites []Site, keep func(Site) bool) []Site {
	out := sites[:0]
	for _, s := range sites {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// Combinations enumerates the k-combinations of {0..n-1} in lexicographic
// order, truncating after max tuples when max > 0. It is the plan's
// deterministic core, standalone so the fuzz harness can cross-check it
// against brute force on arbitrary (n, k).
func Combinations(n, k, max int) (tuples [][]int, truncated bool) {
	if k < 1 || k > n {
		return nil, false
	}
	cur := make([]int, k)
	for i := range cur {
		cur[i] = i
	}
	for {
		if max > 0 && len(tuples) == max {
			return tuples, true
		}
		tuples = append(tuples, append([]int(nil), cur...))
		// Advance: find the rightmost slot that can still move up.
		i := k - 1
		for i >= 0 && cur[i] == n-k+i {
			i--
		}
		if i < 0 {
			return tuples, false
		}
		cur[i]++
		for j := i + 1; j < k; j++ {
			cur[j] = cur[j-1] + 1
		}
	}
}

// NumTuples returns C(n, k), saturating at maxInt — plans are sized before
// enumeration so a runaway request can be rejected instead of allocated.
func NumTuples(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const maxInt = int(^uint(0) >> 1)
	r := 1
	for i := 1; i <= k; i++ {
		if r > maxInt/(n-k+i) {
			return maxInt
		}
		r = r * (n - k + i) / i
	}
	return r
}

// PruneIndex decides whether a tuple is skippable: it returns the position
// of the first member site the inert oracle rules out, or -1 when the tuple
// must be executed. A site is inert when its singleton campaign is already
// known unable to influence the outputs — formally (a prover independence
// verdict) or empirically (a cached all-ineffective singleton tally) — so
// any tuple containing it degenerates to a smaller tuple already covered by
// the plan's lower arities.
func PruneIndex(tuple []int, inert func(site int) bool) int {
	if inert == nil {
		return -1
	}
	for i, s := range tuple {
		if inert(s) {
			met.Load().countPruned(1)
			return i
		}
	}
	return -1
}

// Faults materialises one tuple as the fault engine's injection set: the
// same model and activity cycle at every member site.
func (p *Plan) Faults(tuple []int, model fault.Model, cycle int) []fault.Fault {
	faults := make([]fault.Fault, 0, len(tuple))
	for _, s := range tuple {
		faults = append(faults, fault.At(p.Sites[s].Net, model, cycle))
	}
	return faults
}

// Corruption is one persistent-fault plan entry (see fault.PersistentFault).
type Corruption struct {
	Entry int    `json:"entry"`
	Mask  uint64 `json:"mask"`
}

// PersistentPlan enumerates S-box corruptions for the PFA model: every
// (entry, non-zero mask) pair of a 2^sboxBits-entry table, entry-major then
// mask-ascending — 2^n x (2^n - 1) corruptions. entries, when non-empty,
// restricts the table rows. max > 0 truncates like Combinations.
func PersistentPlan(sboxBits int, entries []int, max int) (cs []Corruption, truncated bool, err error) {
	if sboxBits < 1 || sboxBits > 16 {
		return nil, false, fmt.Errorf("plan: S-box width %d out of range", sboxBits)
	}
	size := 1 << sboxBits
	if len(entries) == 0 {
		entries = make([]int, size)
		for i := range entries {
			entries[i] = i
		}
	}
	for _, e := range entries {
		if e < 0 || e >= size {
			return nil, false, fmt.Errorf("plan: entry %d outside the %d-entry S-box", e, size)
		}
		for mask := uint64(1); mask < uint64(size); mask++ {
			if max > 0 && len(cs) == max {
				met.Load().countTuples(len(cs))
				return cs, true, nil
			}
			cs = append(cs, Corruption{Entry: e, Mask: mask})
		}
	}
	met.Load().countTuples(len(cs))
	return cs, false, nil
}
