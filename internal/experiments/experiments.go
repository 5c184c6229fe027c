// Package experiments encodes every table and figure of the paper's
// evaluation section as a reproducible, parameterised experiment. The
// cmd/ harnesses, the benchmark suite and EXPERIMENTS.md all derive from
// the functions here, so there is exactly one definition of each
// experiment.
package experiments

import (
	"sync"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/spn"
	"repro/internal/synth"
)

// Config carries the campaign-level knobs shared by the figure
// experiments.
type Config struct {
	// Runs is the number of simulated encryptions per design; the paper
	// uses 80,000.
	Runs int
	// Seed makes the campaign deterministic.
	Seed uint64
	// Key is the fixed key used for every run (the paper fixes the key
	// and varies plaintext and λ).
	Key spn.KeyState
	// Quick shrinks expensive parameters for unit tests.
	Quick bool
}

// DefaultConfig returns the paper's campaign parameters: 80k runs of
// PRESENT-80 under a fixed key.
func DefaultConfig() Config {
	return Config{
		Runs: 80000,
		Seed: 0x5C09E2021,
		Key:  spn.KeyState{0x0123456789ABCDEF, 0x8421},
	}
}

func (c Config) runs() int {
	if c.Runs > 0 {
		return c.Runs
	}
	return 80000
}

// The figure experiments all target the same two PRESENT-80 designs;
// building (and therefore compiling) them once lets every experiment in a
// process share one netlist pointer, which is what makes the simulator's
// pointer-keyed compile cache effective across fig4, fig5 and the sweeps.
var (
	naiveOnce, threeOnce     sync.Once
	naiveDesign, threeDesign *core.Design
)

// buildNaive builds the naive-duplication PRESENT-80 core used as the
// baseline of Figures 4 and 5.
func buildNaive() *core.Design {
	naiveOnce.Do(func() {
		naiveDesign = core.MustBuild(present.Spec(), core.Options{
			Scheme: core.SchemeNaiveDup,
			Engine: synth.EngineANF,
		})
	})
	return naiveDesign
}

// buildThreeInOne builds the paper's countermeasure (prime variant) on
// PRESENT-80.
func buildThreeInOne() *core.Design {
	threeOnce.Do(func() {
		threeDesign = core.MustBuild(present.Spec(), core.Options{
			Scheme:  core.SchemeThreeInOne,
			Entropy: core.EntropyPrime,
			Engine:  synth.EngineANF,
		})
	})
	return threeDesign
}
