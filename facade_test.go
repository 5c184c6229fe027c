package scone

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// facadeSymbols is the curated public surface: every internal symbol
// intended to be public must be reachable under one of these names. The
// parity test fails when a facade rename or deletion silently drops one.
var facadeSymbols = []string{
	// Cipher description layer.
	"Spec", "KeyState", "PresentSpec", "GiftSpec", "Scone64Spec",
	// Countermeasure construction layer.
	"Scheme", "Entropy", "Options", "Design", "Runner", "LambdaFunc",
	"Branch", "SoftwareCM",
	"SchemeUnprotected", "SchemeNaiveDup", "SchemeACISP", "SchemeThreeInOne",
	"SchemeCorrect", "SchemeMaskedDup",
	"SchemeInfo", "Schemes", "ParseScheme", "SchemeWire",
	"EntropyPrime", "EntropyPerRound", "EntropyPerSbox",
	"BranchActual", "BranchRedundant", "BranchRedundant2",
	"EngineANF", "EngineBDD",
	"Build", "MustBuild", "NewRunner", "LambdaConst",
	// Simulation layer.
	"BatchLanes", "EngineConfig", "DefaultEngineConfig",
	// Fault-injection layer.
	"Model", "Fault", "Campaign", "CampaignResult", "Run", "Net", "Injector",
	"StuckAt0", "StuckAt1", "BitFlip", "PersistentFault",
	"FaultAt", "NewInjector", "BoundCampaign", "NewCampaign",
	// Multi-fault planning layer.
	"FaultPlan", "PlanRequest", "PlanSite", "SboxCorruption",
	"Plan", "PlanSites", "PersistentCorruptions",
	// Attack layer.
	"AttackTarget", "AttackResult", "DFAConfig", "SIFAConfig", "SIFAResult",
	"IFAConfig", "IFAResult", "SFAConfig", "FTAConfig", "FTAResult",
	"NewAttackTarget", "RunDFA", "RunSIFA", "RunFTA", "RunIFA", "RunSFA",
	// Area layer.
	"CellLibrary", "AreaReport", "Nangate45", "Area",
	// Service layer.
	"ServiceConfig", "Service", "JobRequest", "JobStatus", "JobKind",
	"JobState", "JobEvent",
	"JobCampaign", "JobDFA", "JobSIFA", "JobFTA", "JobArea", "JobLint",
	"JobProve", "JobMultiFault", "JobLeakage",
	"DesignSpec", "MultiFaultSpec", "MultiFaultResult", "TupleResult", "U64",
	"LeakageSpec", "LeakageResult",
	"JobQueued", "JobRunning", "JobDone", "JobFailed", "JobCanceled",
	"NewService", "MultiFault", "Leakage",
	// Distributed execution layer.
	"DistConfig", "WorkerState", "LeaseState", "WorkerInfo", "LeaseInfo",
	"LeaseGrant", "CampaignWorker", "CampaignWorkerConfig",
	"WorkerActive", "WorkerLost", "WorkerLeft",
	"LeasePending", "LeaseActive",
	"NewCampaignWorker",
	// Observability layer.
	"Registry", "Counter", "Gauge", "Histogram", "Span",
	"NewRegistry", "EnableObservability",
	// Randomness layer.
	"EntropySource", "TRNG", "NewTRNG", "NewDeterministicSource",
}

// parseFacade parses the non-test files of the root package.
func parseFacade(t *testing.T) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// facadeDecls returns every exported top-level name and whether it (or its
// declaration group) carries a doc comment.
func facadeDecls(files []*ast.File) map[string]bool {
	documented := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					documented[d.Name.Name] = d.Doc != nil
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							documented[s.Name.Name] = s.Doc != nil || d.Doc != nil
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								documented[n.Name] = s.Doc != nil || d.Doc != nil
							}
						}
					}
				}
			}
		}
	}
	return documented
}

// Every symbol on the curated list must exist, and every exported facade
// declaration must carry a doc comment.
func TestFacadeParity(t *testing.T) {
	documented := facadeDecls(parseFacade(t))
	for _, name := range facadeSymbols {
		if _, ok := documented[name]; !ok {
			t.Errorf("facade symbol %s is missing from the root package", name)
		}
	}
	for name, hasDoc := range documented {
		if !hasDoc {
			t.Errorf("exported facade symbol %s has no doc comment", name)
		}
	}
}

// Methods on facade-declared types must be documented too (the parity of
// godoc completeness; aliased types document themselves at the source).
func TestFacadeMethodsDocumented(t *testing.T) {
	for _, f := range parseFacade(t) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			if fd.Doc == nil {
				t.Errorf("exported method %s has no doc comment", fd.Name.Name)
			}
		}
	}
}

// The in-process multifault sweep: plans, executes every placement and
// aggregates, with nil-context rejection up front.
func TestFacadeMultiFault(t *testing.T) {
	//lint:ignore SA1012 nil-context rejection is exactly what is under test
	if _, err := MultiFault(nil, DesignSpec{}, MultiFaultSpec{}); err == nil {
		t.Error("nil context accepted")
	}
	res, err := MultiFault(context.Background(),
		DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
		MultiFaultSpec{
			K: 2, Sboxes: []int{13}, MaxTuples: 3, RunsPerTuple: 128,
			Seed: 7, Key: [2]U64{0x0123456789ABCDEF, 0x8421},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Planned != 3 || res.Executed != 3 || !res.Truncated || res.Totals.Total != 3*128 {
		t.Fatalf("sweep result %+v", res)
	}
}

// The in-process TVLA evaluation: collects traces, scores the t-test and
// returns the verdict, with nil-context rejection up front.
func TestFacadeLeakage(t *testing.T) {
	//lint:ignore SA1012 nil-context rejection is exactly what is under test
	if _, err := Leakage(nil, DesignSpec{}, LeakageSpec{}); err == nil {
		t.Error("nil context accepted")
	}
	res, err := Leakage(context.Background(),
		DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
		LeakageSpec{
			Pairs: 192, Seed: 0x17, Key: [2]U64{0x0123456789ABCDEF, 0x8421},
			FixedPT: 0x0123456789ABCDEF,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixed != 192 || res.Random != 192 || res.Discarded != 0 {
		t.Fatalf("trace counts %+v", res)
	}
	if !res.Leaks {
		t.Fatalf("unmasked three-in-one passed TVLA (max |t| = %.1f)", res.MaxAbsT)
	}
}

// The context-first campaign constructor: validates inputs, runs under the
// bound context, and a pre-cancelled context stops before any batch.
func TestFacadeNewCampaign(t *testing.T) {
	d := MustBuild(PresentSpec(), Options{
		Scheme: SchemeThreeInOne, Entropy: EntropyPrime, Engine: EngineANF,
	})
	key := KeyState{0x0123456789ABCDEF, 0x8421}
	flt := FaultAt(d.SboxInputNet(BranchActual, 13, 2), StuckAt0, d.LastRoundCycle())

	//lint:ignore SA1012 nil-context rejection is exactly what is under test
	if _, err := NewCampaign(nil, d, key, 128, 1, flt); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := NewCampaign(context.Background(), nil, key, 128, 1, flt); err == nil {
		t.Error("nil design accepted")
	}
	if _, err := NewCampaign(context.Background(), d, key, 0, 1, flt); err == nil {
		t.Error("zero run count accepted")
	}

	c, err := NewCampaign(context.Background(), d, key, 192, 0x5C09E2021, flt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 192 || res.Ineffective()+res.Detected()+res.Effective() != 192 {
		t.Fatalf("campaign result %+v", res)
	}

	// The engine configuration is validated and never changes results.
	cw, err := NewCampaign(context.Background(), d, key, 192, 0x5C09E2021, flt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.WithEngine(EngineConfig{LaneWords: 3}); err == nil {
		t.Error("invalid engine configuration accepted")
	}
	cw, err = cw.WithEngine(EngineConfig{LaneWords: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	resW, err := cw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if resW != res {
		t.Fatalf("wide engine result %+v differs from %+v", resW, res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c2, err := NewCampaign(ctx, d, key, 192, 0x5C09E2021, flt)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(nil)
	if err == nil {
		t.Fatal("pre-cancelled campaign ran to completion")
	}
	if res2.Total != 0 {
		t.Fatalf("pre-cancelled campaign simulated %d runs", res2.Total)
	}
}
