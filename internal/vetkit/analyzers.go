package vetkit

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Analyzers returns the repository's vet passes in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoRand, CachedCompile, CtxExecute, EngineCfg, ObsNames, ProveBudget}
}

// NoRand forbids math/rand outside test files and internal/rng.
// Production randomness — the λ masks whose quality the countermeasure's
// security rests on — must come from internal/rng, which wraps a real
// entropy source and makes the generator choice auditable in one place.
var NoRand = &Analyzer{
	Name: "norand",
	Doc:  "forbid math/rand outside _test.go files and internal/rng (use internal/rng)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if f.Test || strings.HasPrefix(f.Dir(), "internal/rng/") {
				continue
			}
			for _, imp := range f.AST.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == "math/rand" || path == "math/rand/v2" {
					p.Reportf(imp.Pos(), "import of %s in production code: draw randomness from internal/rng", path)
				}
			}
		}
	},
}

// ctxExecuteDirs are the packages whose jobs must stay cancellable: the
// service's drain/checkpoint machinery and the daemon wrapping it.
var ctxExecuteDirs = []string{"internal/service/", "cmd/sconed/"}

// CtxExecute forbids context-free Campaign.Execute calls in the service
// layer. Graceful drain and checkpoint/resume both rely on cancellation
// reaching the simulation between batches; a bare Execute call would run
// a campaign to completion no matter what, wedging shutdown for the whole
// worker. Use ExecuteBatchesFunc with the job's context there instead.
var CtxExecute = &Analyzer{
	Name: "ctxexecute",
	Doc:  "forbid context-free .Execute( in internal/service and cmd/sconed (use ExecuteBatchesFunc)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			scoped := false
			for _, dir := range ctxExecuteDirs {
				if strings.HasPrefix(f.Dir(), dir) {
					scoped = true
					break
				}
			}
			if !scoped {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Execute" {
					p.Reportf(call.Pos(), "context-free .Execute call in the service layer cannot be drained: use ExecuteBatchesFunc with the job's context")
				}
				return true
			})
		}
	},
}

// simImportPath is the compiled-simulator package CachedCompile guards.
const simImportPath = "repro/internal/sim"

// CachedCompile forbids direct sim.Compile calls outside internal/sim.
// Compiling a netlist is the dominant cost of every experiment loop;
// sim.CompileCached memoises the program on its module, so every caller
// holding the same module shares it, and calling sim.Compile directly
// silently compiles again.
var CachedCompile = &Analyzer{
	Name: "cachedcompile",
	Doc:  "forbid direct sim.Compile outside internal/sim (use sim.CompileCached)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if f.Test || strings.HasPrefix(f.Dir(), "internal/sim/") {
				continue
			}
			local := importName(f.AST, simImportPath)
			if local == "" || local == "_" || local == "." {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Compile" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && id.Obj == nil {
					p.Reportf(call.Pos(), "direct sim.Compile call bypasses the program cache: use sim.CompileCached")
				}
				return true
			})
		}
	},
}

// coreImportPath is the runner package EngineCfg guards alongside the
// simulator, and engineCfgDirs the packages allowed to construct engines
// directly: the simulator itself, the runner layer wrapping it, and the
// campaign executor that instantiates engines behind EngineConfig.resolve.
const coreImportPath = "repro/internal/core"

var engineCfgDirs = []string{"internal/sim/", "internal/core/", "internal/fault/"}

// engineCfgFuncs maps each guarded import path to its engine constructor.
var engineCfgFuncs = map[string]string{
	simImportPath:  "NewEngine",
	coreImportPath: "NewWideRunnerFrom",
}

// EngineCfg forbids direct engine construction outside the engine layers.
// sim.NewEngine and core.NewWideRunnerFrom instantiate a width without
// passing through fault.EngineConfig's validator, so a caller elsewhere in
// the tree could run a lane width the configuration surface rejects — and
// would sidestep the worker sharding that keeps campaign results
// bit-identical. Everything above the campaign executor selects its engine
// through EngineConfig.
var EngineCfg = &Analyzer{
	Name: "enginecfg",
	Doc:  "forbid direct engine construction (sim.NewEngine, core.NewWideRunnerFrom) outside internal/sim, internal/core and internal/fault (configure fault.EngineConfig)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			scoped := false
			for _, dir := range engineCfgDirs {
				if strings.HasPrefix(f.Dir(), dir) {
					scoped = true
					break
				}
			}
			if scoped {
				continue
			}
			for path, ctor := range engineCfgFuncs {
				local := importName(f.AST, path)
				if local == "" || local == "_" || local == "." {
					continue
				}
				ast.Inspect(f.AST, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					// Generic constructors may appear instantiated
					// (pkg.New[W](...)) or inferred (pkg.New(...)).
					fun := call.Fun
					switch e := fun.(type) {
					case *ast.IndexExpr:
						fun = e.X
					case *ast.IndexListExpr:
						fun = e.X
					}
					sel, ok := fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != ctor {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && id.Obj == nil {
						p.Reportf(call.Pos(), "direct %s.%s call bypasses the engine-configuration validator: set fault.EngineConfig on the campaign", local, ctor)
					}
					return true
				})
			}
		}
	},
}

// obsRegisterFuncs are the obs.Registry registration methods whose first
// argument is the metric name.
var obsRegisterFuncs = map[string]bool{
	"NewCounter":   true,
	"NewGauge":     true,
	"NewGaugeFunc": true,
	"NewHistogram": true,
}

// obsUnits are the unit suffixes the metric naming scheme permits.
var obsUnits = map[string]bool{
	"total": true, "count": true, "ns": true, "bytes": true, "ratio": true,
}

// ObsNames enforces the scone_<pkg>_<metric>_<unit> naming scheme at obs
// registration sites. Metric names are API: dashboards and alert rules
// outlive refactors, so the scheme is pinned mechanically — a literal name
// passed to NewCounter/NewGauge/NewGaugeFunc/NewHistogram must be
// scone-prefixed lowercase snake_case ending in a known unit, and inside
// internal/<pkg> the name's package segment must match the directory.
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc:  "enforce scone_<pkg>_<metric>_<unit> names at obs registration sites (unit: total/count/ns/bytes/ratio)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			// Inside internal/<pkg>/ the name must carry that package's
			// segment; elsewhere (cmd/ looking up shared instruments)
			// only the overall shape is checked.
			wantPkg := ""
			if rest, ok := strings.CutPrefix(f.Dir(), "internal/"); ok {
				wantPkg = rest[:strings.Index(rest, "/")]
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !obsRegisterFuncs[sel.Sel.Name] {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				checkObsName(p, lit.Pos(), name, wantPkg)
				return true
			})
		}
	},
}

// bddImportPath is the BDD package ProveBudget guards, and
// proveBudgetDirs the analysis packages where unbounded managers are
// forbidden. Synthesis and experiment code may still size managers freely:
// only the analyses that run inside lint rules and service jobs must
// degrade to a skip/unknown verdict instead of growing without bound.
const bddImportPath = "repro/internal/bdd"

var proveBudgetDirs = []string{"internal/lint/", "internal/prove/"}

// ProveBudget forbids bare bdd.New calls in internal/lint and
// internal/prove. Both packages run BDD analyses on untrusted netlists
// where node growth is the failure mode; bdd.NewWithBudget plus
// bdd.Guarded turns a blow-up into a reported skip or an unknown verdict,
// while a bare bdd.New silently removes the ceiling.
var ProveBudget = &Analyzer{
	Name: "provebudget",
	Doc:  "forbid bare bdd.New in internal/lint and internal/prove (use bdd.NewWithBudget + bdd.Guarded)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			scoped := false
			for _, dir := range proveBudgetDirs {
				if strings.HasPrefix(f.Dir(), dir) {
					scoped = true
					break
				}
			}
			if !scoped {
				continue
			}
			local := importName(f.AST, bddImportPath)
			if local == "" || local == "_" || local == "." {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "New" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && id.Obj == nil {
					p.Reportf(call.Pos(), "bare bdd.New in analysis code has no node ceiling: use bdd.NewWithBudget and run under bdd.Guarded")
				}
				return true
			})
		}
	},
}

// checkObsName reports naming-scheme violations for one registered metric.
func checkObsName(p *Pass, pos token.Pos, name, wantPkg string) {
	parts := strings.Split(name, "_")
	if len(parts) < 4 || parts[0] != "scone" {
		p.Reportf(pos, "metric %q does not follow scone_<pkg>_<metric>_<unit>", name)
		return
	}
	for _, seg := range parts {
		for _, r := range seg {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
				p.Reportf(pos, "metric %q is not lowercase snake_case", name)
				return
			}
		}
		if seg == "" {
			p.Reportf(pos, "metric %q has an empty name segment", name)
			return
		}
	}
	if unit := parts[len(parts)-1]; !obsUnits[unit] {
		p.Reportf(pos, "metric %q ends in %q; unit must be one of total, count, ns, bytes or ratio", name, unit)
		return
	}
	if wantPkg != "" && parts[1] != wantPkg {
		p.Reportf(pos, "metric %q carries package segment %q but is registered in internal/%s", name, parts[1], wantPkg)
	}
}
