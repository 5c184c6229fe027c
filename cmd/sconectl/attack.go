package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/spn"
)

// deviceKey is the secret key of the local attack and trace victims.
var deviceKey = spn.KeyState{0x0123456789ABCDEF, 0x8421}

// matrixRow is one (attack, scheme) cell of the report, in the shared wire
// vocabulary so -json output lines up with the sconed job results.
type matrixRow struct {
	Attack    string `json:"attack"`
	Scheme    string `json:"scheme"`
	Succeeded bool   `json:"succeeded"`
	Detail    string `json:"detail"`
}

// report accumulates matrix rows and, in text mode, mirrors them to stdout
// in the traditional section layout.
type report struct {
	w    io.Writer // nil in -json mode
	rows []matrixRow
}

func (r *report) section(title string) {
	if r.w != nil {
		fmt.Fprintf(r.w, "=== %s ===\n", title)
	}
}

func (r *report) sectionEnd() {
	if r.w != nil {
		fmt.Fprintln(r.w)
	}
}

// add records one cell. scheme is the wire-vocabulary scheme name; label is
// the (possibly more descriptive) text-report line.
func (r *report) add(attackName string, scheme core.Scheme, label string, res attack.Result, width int) {
	r.rows = append(r.rows, matrixRow{Attack: attackName, Scheme: core.SchemeWire(scheme), Succeeded: res.Succeeded, Detail: res.Detail})
	if r.w != nil {
		fmt.Fprintf(r.w, "  vs %-*s %s\n", width, label+":", res)
	}
}

// cmdAttack mounts the paper's three attack families against each
// protection scheme and prints the success/failure matrix — the executable
// form of the paper's Section IV-B security argument. The design flags
// retarget every attack's victim design, and -scheme (when set to a
// non-default value) restricts the matrix to that scheme's rows. With
// -json the matrix is emitted through the shared service encoder instead
// of the text report.
func cmdAttack(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("attack", "all", "attack to run: dfa, identical, sifa, ifa, fta or all")
	quick := fs.Bool("quick", false, "shrink attack budgets for a fast smoke run (results are noisy)")
	design := registerDesign(fs)
	jsonOut := fs.Bool("json", false, "emit the attack matrix as JSON through the shared service encoder")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *which {
	case "dfa", "identical", "sifa", "ifa", "fta", "all":
	default:
		return fmt.Errorf("unknown attack %q", *which)
	}
	_, opts, err := design.parse()
	if err != nil {
		return err
	}

	// The matrix sweeps schemes by design; a non-default -scheme narrows it
	// to that scheme's rows instead of being silently ignored.
	only := core.Scheme(0)
	restrict := design.scheme != defaultScheme
	if restrict {
		only = opts.Scheme
	}
	keep := func(s core.Scheme) bool { return !restrict || s == only }

	buildDesign := func(scheme core.Scheme, separate bool) (*core.Design, error) {
		ds := design.designSpec()
		ds.Scheme = core.SchemeWire(scheme)
		ds.SeparateSbox = separate
		return service.BuildDesign(ds)
	}
	newTarget := func(scheme core.Scheme) (*attack.Target, error) {
		d, err := buildDesign(scheme, false)
		if err != nil {
			return nil, err
		}
		return attack.NewTarget(d, deviceKey, 0xD0D0)
	}
	sel := func(name string) bool { return *which == name || *which == "all" }

	rep := &report{w: stdout}
	if *jsonOut {
		rep.w = nil
	}

	if sel("dfa") {
		rep.section("Classic last-round DFA (single computation, bit-flip faults)")
		cfg := attack.DefaultDFAConfig()
		if *quick {
			cfg.PairsPerNibble = 4
		}
		for _, s := range []core.Scheme{core.SchemeUnprotected, core.SchemeNaiveDup, core.SchemeThreeInOne} {
			if !keep(s) {
				continue
			}
			t, err := newTarget(s)
			if err != nil {
				return err
			}
			rep.add("dfa", s, s.String(), attack.RunDFA(t, cfg), 24)
		}
		rep.sectionEnd()
	}

	if sel("identical") {
		rep.section("Identical-fault DFA (FDTC 2016: same stuck-at in both computations)")
		cfg := attack.IdenticalDFAConfig()
		if *quick {
			cfg.PairsPerNibble = 4
		}
		for _, s := range []core.Scheme{core.SchemeNaiveDup, core.SchemeACISP, core.SchemeThreeInOne} {
			if !keep(s) {
				continue
			}
			t, err := newTarget(s)
			if err != nil {
				return err
			}
			rep.add("identical-dfa", s, s.String(), attack.RunDFA(t, cfg), 24)
		}
		if keep(core.SchemeThreeInOne) {
			cfg.Model = fault.BitFlip
			t, err := newTarget(core.SchemeThreeInOne)
			if err != nil {
				return err
			}
			rep.add("identical-dfa-bitflip", core.SchemeThreeInOne, "three-in-one (identical bit-FLIP, the §IV-B-4 caveat)", attack.RunDFA(t, cfg), 24)
		}
		rep.sectionEnd()
	}

	if sel("sifa") {
		rep.section("SIFA (stuck-at-0 at S-box 13 bit 2, ineffective-fault filtering)")
		cfg := attack.DefaultSIFAConfig()
		if *quick {
			cfg.Injections = 256
		}
		for _, s := range []core.Scheme{core.SchemeNaiveDup, core.SchemeACISP, core.SchemeThreeInOne} {
			if !keep(s) {
				continue
			}
			t, err := newTarget(s)
			if err != nil {
				return err
			}
			rep.add("sifa", s, s.String(), attack.RunSIFA(t, cfg).Result, 24)
		}
		rep.sectionEnd()
	}

	if sel("ifa") {
		rep.section("IFA / biased-fault SFA (the models SIFA generalises, §IV-B-5)")
		icfg := attack.DefaultIFAConfig()
		scfg := attack.DefaultSFAConfig()
		if *quick {
			icfg.Runs = 128
			scfg.Injections = 256
		}
		for _, s := range []core.Scheme{core.SchemeNaiveDup, core.SchemeThreeInOne} {
			if !keep(s) {
				continue
			}
			t, err := newTarget(s)
			if err != nil {
				return err
			}
			rep.add("ifa", s, s.String(), attack.RunIFA(t, icfg).Result, 20)
		}
		for _, s := range []core.Scheme{core.SchemeNaiveDup, core.SchemeThreeInOne} {
			if !keep(s) {
				continue
			}
			t, err := newTarget(s)
			if err != nil {
				return err
			}
			rep.add("sfa", s, s.String(), attack.RunSFA(t, scfg).Result, 20)
		}
		rep.sectionEnd()
	}

	if sel("fta") {
		rep.section("FTA (flip one input line of an AND gate in S-box 7)")
		type cfg struct {
			label    string
			scheme   core.Scheme
			separate bool
		}
		for _, c := range []cfg{
			{"unprotected", core.SchemeUnprotected, false},
			{"naive-duplication", core.SchemeNaiveDup, false},
			{"acisp (separate S-boxes)", core.SchemeACISP, true},
			{"three-in-one (merged)", core.SchemeThreeInOne, false},
		} {
			if !keep(c.scheme) {
				continue
			}
			fcfg := attack.DefaultFTAConfig()
			if c.separate {
				fcfg.Repeats = 128
			}
			if *quick {
				fcfg.Repeats = 8
				fcfg.ProfilePTs = 2
				fcfg.AttackPTs = 2
			}
			d, err := buildDesign(c.scheme, c.separate)
			if err != nil {
				return err
			}
			res, err := attack.RunFTAOnDesign(d, deviceKey, fcfg, 0xFA)
			if err != nil {
				if rep.w != nil {
					fmt.Fprintf(rep.w, "  vs %-28s error: %v\n", c.label+":", err)
				}
				rep.rows = append(rep.rows, matrixRow{Attack: "fta", Scheme: core.SchemeWire(c.scheme), Detail: "error: " + err.Error()})
				continue
			}
			rep.add("fta", c.scheme, c.label, res.Result, 28)
		}
	}

	if *jsonOut {
		return service.WriteJSON(stdout, map[string]any{
			"attack": *which,
			"design": design.designSpec(),
			"rows":   rep.rows,
		})
	}
	return nil
}
