package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/netlist"
)

// errFindings distinguishes "the lint ran and found problems" from usage
// and I/O errors: both exit 1, but findings print only the report.
var errFindings = errors.New("findings reported")

// cmdLint statically audits netlists: structural health (floating nets,
// loops, dead logic) and the countermeasure soundness properties of the
// paper's duplication scheme (λ coverage, ¬λ branch duality, comparator
// coverage, constant nets). It lints either netlist files in the scone
// text format or, given none, the core the design flags select.
func cmdLint(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := registerDesign(fs)
	rules := fs.String("rules", "", "comma-separated rule IDs or categories to run (default: all)")
	maxPerRule := fs.Int("max-per-rule", 0, "cap diagnostics kept per rule (0 = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	summary := fs.Bool("summary", false, "prefix the per-rule summary table")
	list := fs.Bool("list", false, "list the registered rules and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: sconectl lint [flags] [netlist.nl ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range lint.Rules() {
			fmt.Fprintf(stdout, "%-16s %-15s %s\n", r.ID, "("+string(r.Category)+")", r.Doc)
		}
		return nil
	}

	opts := lint.Options{MaxPerRule: *maxPerRule}
	if *rules != "" {
		opts.Rules = strings.Split(*rules, ",")
	}

	var modules []*netlist.Module
	if fs.NArg() > 0 {
		for _, path := range fs.Args() {
			m, err := readModule(path)
			if err != nil {
				return err
			}
			modules = append(modules, m)
		}
	} else {
		d, err := design.build()
		if err != nil {
			return err
		}
		modules = append(modules, d.Mod)
	}

	clean := true
	for _, m := range modules {
		rep, err := lint.Run(m, opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := rep.WriteJSON(stdout); err != nil {
				return err
			}
		} else if err := rep.WriteText(stdout, *summary); err != nil {
			return err
		}
		clean = clean && rep.Clean()
	}
	if !clean {
		return errFindings
	}
	return nil
}

// readModule loads a netlist file laxly: structurally broken modules are
// exactly what the linter is for.
func readModule(path string) (*netlist.Module, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := netlist.ReadTextLax(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
