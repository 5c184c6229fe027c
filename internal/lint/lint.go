// Package lint is a rule-based static analyzer for netlist.Module. It
// checks two families of properties:
//
//   - structural rules subsume netlist.Validate (floating and multi-driven
//     nets, combinational loops, malformed and duplicate ports) and extend
//     it with liveness (dead-gate);
//   - countermeasure rules prove, without simulation, the structural
//     properties the paper's security argument rests on: every data-path
//     gate is λ-randomised (lambda-cone, the FTA guarantee), the redundant
//     branch is the ¬λ complement-encoded dual of the actual branch
//     (dual-branch, the identical-fault DFA guarantee), every redundant
//     register is observed by the comparator (detect-coverage, the
//     DFA/SIFA detection guarantee), and no intermediate net is constant
//     (const-net, dead logic and a SIFA bias red flag).
//
// Countermeasure rules locate the protection structure through the port
// and register naming conventions documented in internal/core (ports "pt",
// "lambda", "load", "garbage", "fault"; register prefixes "b0." / "b1."),
// and use internal/bdd for the equivalence obligations.
//
// Rules run in parallel and emit structured Diagnostics; `sconectl lint` is
// the command-line front end.
package lint

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/netlist"
)

// Severity grades a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	SeverityInfo Severity = iota
	SeverityWarning
	SeverityError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Category groups rules by what they prove.
type Category string

// Rule categories; Options.Rules accepts them as selectors.
const (
	CategoryStructural     Category = "structural"
	CategoryCountermeasure Category = "countermeasure"
)

// Diagnostic is one finding. Cell is the index of the offending cell or -1
// for module-level findings; Net is the offending net or 0 when the
// finding is not tied to one net.
type Diagnostic struct {
	Rule     string      `json:"rule"`
	Severity Severity    `json:"severity"`
	Cell     int         `json:"cell"`
	CellKind string      `json:"cell_kind,omitempty"`
	Net      netlist.Net `json:"net,omitempty"`
	NetName  string      `json:"net_name,omitempty"`
	Message  string      `json:"message"`
}

// Location renders the cell/net coordinates of the diagnostic, or "module"
// for module-level findings.
func (d *Diagnostic) Location() string {
	switch {
	case d.Cell >= 0 && d.NetName != "":
		return fmt.Sprintf("cell %d (%s %q)", d.Cell, d.CellKind, d.NetName)
	case d.Cell >= 0:
		return fmt.Sprintf("cell %d (%s)", d.Cell, d.CellKind)
	case d.NetName != "":
		return fmt.Sprintf("net %d (%q)", d.Net, d.NetName)
	case d.Net != 0:
		return fmt.Sprintf("net %d", d.Net)
	default:
		return "module"
	}
}

// Rule is one check. Check inspects the module through the context and
// reports findings; it must be safe to run concurrently with other rules
// (the context's precomputed views are read-only).
type Rule struct {
	ID       string
	Doc      string // one-line description of the property the rule proves
	Category Category
	Check    func(c *Context, r *Reporter)
}

// Reporter collects one rule's findings.
type Reporter struct {
	rule      *Rule
	c         *Context
	max       int
	diags     []Diagnostic
	truncated int
	skipped   string
}

// Report records one finding. The cell/net location fields of d are
// completed from the module (kind and debug name) before storing.
func (r *Reporter) Report(d Diagnostic) {
	d.Rule = r.rule.ID
	if d.Cell >= 0 && d.Cell < len(r.c.M.Cells) {
		cell := &r.c.M.Cells[d.Cell]
		d.CellKind = cell.Kind.String()
		if d.Net == 0 {
			d.Net = cell.Out
		}
	}
	if d.Net != 0 && d.NetName == "" {
		d.NetName = r.c.M.NetName(d.Net)
	}
	if r.max > 0 && len(r.diags) >= r.max {
		r.truncated++
		return
	}
	r.diags = append(r.diags, d)
}

// Errorf reports an error-severity finding at the given cell (or -1).
func (r *Reporter) Errorf(cell int, net netlist.Net, format string, args ...any) {
	r.Report(Diagnostic{Severity: SeverityError, Cell: cell, Net: net,
		Message: fmt.Sprintf(format, args...)})
}

// Warnf reports a warning-severity finding at the given cell (or -1).
func (r *Reporter) Warnf(cell int, net netlist.Net, format string, args ...any) {
	r.Report(Diagnostic{Severity: SeverityWarning, Cell: cell, Net: net,
		Message: fmt.Sprintf(format, args...)})
}

// Skip marks the rule as not applicable to this module (for example
// dual-branch on a module without a λ input). A skipped rule contributes
// no findings; the reason appears in the verbose report.
func (r *Reporter) Skip(reason string) { r.skipped = reason }

// Options configures a lint run.
type Options struct {
	// Rules selects which rules run: rule IDs and/or category names.
	// Empty means all registered rules.
	Rules []string
	// MaxPerRule caps the diagnostics kept per rule; excess findings are
	// counted in RuleResult.Truncated. 0 means unlimited.
	MaxPerRule int
}

// RuleResult is one rule's outcome within a Report.
type RuleResult struct {
	Rule        string       `json:"rule"`
	Category    Category     `json:"category"`
	Doc         string       `json:"doc,omitempty"`
	Skipped     string       `json:"skipped,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	Truncated   int          `json:"truncated,omitempty"`
}

// Report is the outcome of linting one module.
type Report struct {
	Module   string       `json:"module"`
	Findings int          `json:"findings"`
	Results  []RuleResult `json:"results"`
}

// Clean reports whether the module passed every selected rule.
func (r *Report) Clean() bool { return r.Findings == 0 }

// Diagnostics returns all findings across rules, in registry order.
func (r *Report) Diagnostics() []Diagnostic {
	var out []Diagnostic
	for i := range r.Results {
		out = append(out, r.Results[i].Diagnostics...)
	}
	return out
}

// registry is the ordered rule set; rules are registered by the rule files'
// init functions and sorted by (category, ID) with structural rules first.
var registry []*Rule

func register(r *Rule) { registry = append(registry, r) }

// Rules returns the registered rules in report order.
func Rules() []*Rule {
	out := append([]*Rule(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category == CategoryStructural
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selectRules resolves Options.Rules against the registry.
func selectRules(names []string) ([]*Rule, error) {
	all := Rules()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*Rule
	matched := make(map[string]bool)
	for _, r := range all {
		if want[r.ID] || want[string(r.Category)] {
			out = append(out, r)
			matched[r.ID] = true
			matched[string(r.Category)] = true
		}
	}
	for _, n := range names {
		if !matched[n] {
			return nil, fmt.Errorf("lint: unknown rule or category %q", n)
		}
	}
	return out, nil
}

// Run lints the module with the selected rules, executing them in
// parallel, and returns the aggregated report. It returns an error only
// for invalid options; module defects are reported as diagnostics.
func Run(m *netlist.Module, opts Options) (*Report, error) {
	rules, err := selectRules(opts.Rules)
	if err != nil {
		return nil, err
	}
	ctx := newContext(m)

	reporters := make([]*Reporter, len(rules))
	var wg sync.WaitGroup
	for i, rule := range rules {
		reporters[i] = &Reporter{rule: rule, c: ctx, max: opts.MaxPerRule}
		wg.Add(1)
		go func(rule *Rule, rep *Reporter) {
			defer wg.Done()
			rule.Check(ctx, rep)
		}(rule, reporters[i])
	}
	wg.Wait()

	rep := &Report{Module: m.Name}
	for i, rule := range rules {
		r := reporters[i]
		// Rules run concurrently and some (the prove-backed ones in
		// particular) iterate in analysis order, so sort each rule's
		// findings by (net, cell, message): the report and its -json
		// encoding are byte-identical across runs of the same module.
		sort.SliceStable(r.diags, func(a, b int) bool {
			if r.diags[a].Net != r.diags[b].Net {
				return r.diags[a].Net < r.diags[b].Net
			}
			if r.diags[a].Cell != r.diags[b].Cell {
				return r.diags[a].Cell < r.diags[b].Cell
			}
			return r.diags[a].Message < r.diags[b].Message
		})
		rep.Findings += len(r.diags) + r.truncated
		rep.Results = append(rep.Results, RuleResult{
			Rule:        rule.ID,
			Category:    rule.Category,
			Doc:         rule.Doc,
			Skipped:     r.skipped,
			Diagnostics: r.diags,
			Truncated:   r.truncated,
		})
	}
	return rep, nil
}
