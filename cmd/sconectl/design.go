package main

import (
	"flag"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spn"
)

// Canonical defaults of the shared design flag surface: the paper's
// evaluation target (PRESENT-80, three-in-one, master-λ prime entropy).
const (
	defaultSpec    = "present80"
	defaultScheme  = "three-in-one"
	defaultEntropy = "prime"
	defaultEngine  = "anf"
)

// designFlags holds the shared design-selection flag values after parsing.
// Every subcommand that picks a design — the job-submitting commands as
// well as the local plan, sim, attack, lint, netlist and trace — registers
// the same surface through registerDesign, and the values flow through
// service.ParseDesign, the vocabulary of the daemon's wire schema, so a
// design named on the command line is a design the HTTP API accepts
// verbatim. There is deliberately no execution flag (workers, lane
// width): campaign execution policy is a host setting (sconed
// -sim-workers), never part of what a command asks for.
type designFlags struct {
	spec    string
	scheme  string
	entropy string
	engine  string
}

// registerDesign installs the shared design flag surface on fs:
//
//	-spec     cipher spec (present80, gift64, scone64); -cipher is a
//	          legacy alias bound to the same value
//	-scheme   countermeasure scheme (core.SchemeVocabulary: unprotected,
//	          naive, acisp, three-in-one, correct, masked)
//	-entropy  entropy variant (prime, per-round, per-sbox)
//	-engine   S-box synthesis engine (anf, bdd)
func registerDesign(fs *flag.FlagSet) *designFlags {
	d := &designFlags{}
	fs.StringVar(&d.spec, "spec", defaultSpec, "cipher spec: present80, gift64, scone64")
	fs.StringVar(&d.spec, "cipher", defaultSpec, "alias for -spec")
	fs.StringVar(&d.scheme, "scheme", defaultScheme, "countermeasure scheme: "+core.SchemeVocabulary())
	fs.StringVar(&d.entropy, "entropy", defaultEntropy, "entropy variant: prime, per-round, per-sbox")
	fs.StringVar(&d.engine, "engine", defaultEngine, "S-box synthesis engine: anf, bdd")
	return d
}

// isDefault reports whether the values still match the canonical defaults
// (commands whose experiments pin the design use this to reject overrides
// loudly instead of ignoring them).
func (d *designFlags) isDefault() bool {
	return d.spec == defaultSpec && d.scheme == defaultScheme &&
		d.entropy == defaultEntropy && d.engine == defaultEngine
}

// designSpec converts the flag values to the service wire form.
func (d *designFlags) designSpec() service.DesignSpec {
	return service.DesignSpec{Cipher: d.spec, Scheme: d.scheme, Entropy: d.entropy, Engine: d.engine}
}

// parse validates the flag values against the shared vocabulary and
// resolves them to build inputs.
func (d *designFlags) parse() (*spn.Spec, core.Options, error) {
	return service.ParseDesign(d.designSpec())
}

// build synthesises the selected design.
func (d *designFlags) build() (*core.Design, error) {
	return service.BuildDesign(d.designSpec())
}
