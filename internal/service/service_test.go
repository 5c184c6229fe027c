package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/synth"
)

var testKey = [2]U64{0x0123456789ABCDEF, 0x8421}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func campaignRequest(runs int, entropy string) JobRequest {
	return JobRequest{
		Kind: KindCampaign,
		Design: DesignSpec{
			Cipher: "present80", Scheme: "three-in-one", Entropy: entropy,
		},
		Campaign: &CampaignSpec{
			Runs: runs,
			Seed: 0x5C09E2021,
			Key:  testKey,
			Faults: []FaultSpec{
				{Sbox: 13, Bit: 2, Model: "stuck-at-0"},
			},
		},
	}
}

func waitTerminal(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestU64JSONRoundTrip(t *testing.T) {
	for _, v := range []U64{0, 1, 0x5C09E2021, ^U64(0)} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte(`"0x`)) {
			t.Fatalf("U64 %d marshalled as %s, want hex string", v, b)
		}
		var back U64
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("round trip %d -> %s -> %d", v, b, back)
		}
	}
	var fromNumber U64
	if err := json.Unmarshal([]byte("42"), &fromNumber); err != nil || fromNumber != 42 {
		t.Fatalf("number form: %v %d", err, fromNumber)
	}
	var fromDecimal U64
	if err := json.Unmarshal([]byte(`"42"`), &fromDecimal); err != nil || fromDecimal != 42 {
		t.Fatalf("decimal string form: %v %d", err, fromDecimal)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"unknown kind", JobRequest{Kind: "explode"}},
		{"campaign without spec", JobRequest{Kind: KindCampaign}},
		{"campaign zero runs", JobRequest{Kind: KindCampaign, Campaign: &CampaignSpec{Faults: []FaultSpec{{}}}}},
		{"campaign no faults", JobRequest{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 10}}},
		{"campaign bad model", JobRequest{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 10, Faults: []FaultSpec{{Model: "gamma-ray"}}}}},
		{"campaign bad branch", JobRequest{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 10, Faults: []FaultSpec{{Branch: "imaginary"}}}}},
		{"campaign with netlist", JobRequest{Kind: KindCampaign, Design: DesignSpec{Netlist: "module m\nend\n"}, Campaign: &CampaignSpec{Runs: 10, Faults: []FaultSpec{{}}}}},
		{"attack without spec", JobRequest{Kind: KindDFA}},
		{"bad cipher", JobRequest{Kind: KindLint, Design: DesignSpec{Cipher: "des"}}},
		{"bad scheme", JobRequest{Kind: KindLint, Design: DesignSpec{Scheme: "hope"}}},
		{"bad entropy", JobRequest{Kind: KindLint, Design: DesignSpec{Entropy: "vibes"}}},
		{"bad engine", JobRequest{Kind: KindLint, Design: DesignSpec{Engine: "hdl"}}},
		// Optimised designs lose the probe points these kinds address.
		{"optimised campaign", JobRequest{Kind: KindCampaign, Design: DesignSpec{Optimize: true}, Campaign: &CampaignSpec{Runs: 10, Faults: []FaultSpec{{}}}}},
		{"optimised attack", JobRequest{Kind: KindSIFA, Design: DesignSpec{Optimize: true}, Attack: &AttackSpec{}}},
		{"optimised multifault", JobRequest{Kind: KindMultiFault, Design: DesignSpec{Optimize: true}, MultiFault: &MultiFaultSpec{RunsPerTuple: 64}}},
		{"optimised leakage", JobRequest{Kind: KindLeakage, Design: DesignSpec{Optimize: true}, Leakage: &LeakageSpec{Pairs: 32}}},
		{"attack negative sbox", JobRequest{Kind: KindSIFA, Attack: &AttackSpec{Sbox: intp(-1)}}},
		{"attack negative bit", JobRequest{Kind: KindFTA, Attack: &AttackSpec{Bit: intp(-1)}}},
		{"campaign runs over the cap", campaignRequest(maxRuns+1, "prime")},
		{"multifault runs_per_tuple over the cap", JobRequest{Kind: KindMultiFault, MultiFault: &MultiFaultSpec{RunsPerTuple: maxRuns + 1}}},
		{"leakage pairs over the cap", JobRequest{Kind: KindLeakage, Leakage: &LeakageSpec{Pairs: leakage.MaxPairs + 1}}},
		{"leakage pairs at MaxInt", JobRequest{Kind: KindLeakage, Leakage: &LeakageSpec{Pairs: math.MaxInt}}},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if leakage.MaxPairs != maxRuns/2 {
		t.Errorf("leakage.MaxPairs = %d, want maxRuns/2 = %d", leakage.MaxPairs, maxRuns/2)
	}
	ok := campaignRequest(100, "prime")
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	atCap := []JobRequest{
		campaignRequest(maxRuns, "prime"),
		{Kind: KindMultiFault, MultiFault: &MultiFaultSpec{RunsPerTuple: maxRuns}},
		{Kind: KindLeakage, Leakage: &LeakageSpec{Pairs: leakage.MaxPairs}},
	}
	for _, req := range atCap {
		if err := req.Validate(); err != nil {
			t.Errorf("%s request at the runs cap rejected: %v", req.Kind, err)
		}
	}
	for _, k := range []Kind{KindArea, KindLint, KindProve} {
		req := JobRequest{Kind: k, Design: DesignSpec{Optimize: true}}
		if err := req.Validate(); err != nil {
			t.Errorf("optimised %s request rejected: %v", k, err)
		}
	}
}

func intp(v int) *int { return &v }

// A leakage request over the pair cap is a synchronous 400 invalid_request
// naming the cap, and leaves no job record: at math.MaxInt pairs the
// evaluator's batch count would overflow to a negative number and report
// a passing verdict from no traces.
func TestSubmitRejectsLeakagePairsOverTheCap(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, pairs := range []int{leakage.MaxPairs + 1, math.MaxInt} {
		body, err := json.Marshal(JobRequest{Kind: KindLeakage, Leakage: &LeakageSpec{Pairs: pairs, Key: testKey}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest ||
			!strings.Contains(env.Error.Message, "33554432") {
			t.Errorf("%d pairs: HTTP %d %+v, want 400 %s naming the cap", pairs, resp.StatusCode, env.Error, CodeInvalidRequest)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d job records", len(jobs))
	}
}

// TestSubmitRejectsWhatTheDesignCannotRun submits requests that pass
// Validate but address something the default PRESENT-80 core lacks: each
// must be a synchronous 400 invalid_request that leaves no job record.
func TestSubmitRejectsWhatTheDesignCannotRun(t *testing.T) {
	campaign := func(f FaultSpec) JobRequest {
		return JobRequest{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 64, Key: testKey, Faults: []FaultSpec{f}}}
	}
	persistent := func(entry int, mask U64) JobRequest {
		return JobRequest{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 64, Key: testKey, Persistent: &PersistentSpec{Entry: entry, Mask: mask}}}
	}
	sweep := func(m MultiFaultSpec) JobRequest {
		m.RunsPerTuple = 64
		return JobRequest{Kind: KindMultiFault, MultiFault: &m}
	}
	unprotected := campaign(FaultSpec{Branch: "redundant"})
	unprotected.Design.Scheme = "unprotected"
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"fault S-box 16", campaign(FaultSpec{Sbox: 16})},
		{"fault bit 4", campaign(FaultSpec{Bit: 4})},
		{"cycle 999", campaign(FaultSpec{Cycle: intp(999)})},
		{"cycle -1", campaign(FaultSpec{Cycle: intp(-1)})},
		{"persistent entry 16", persistent(16, 1)},
		{"persistent mask 0x10", persistent(0, 0x10)},
		{"redundant2 on three-in-one", campaign(FaultSpec{Branch: "redundant2"})},
		{"redundant on unprotected", unprotected},
		{"kfault sboxes [99]", sweep(MultiFaultSpec{Sboxes: []int{99}})},
		{"persistent sboxes [99]", sweep(MultiFaultSpec{Mode: "persistent", Sboxes: []int{99}})},
		{"cone S-box 99", sweep(MultiFaultSpec{Cone: &FaultSpec{Sbox: 99}})},
		{"kfault k=3 over every site", sweep(MultiFaultSpec{K: 3})},
		{"kfault k=9 over S-box 13", sweep(MultiFaultSpec{K: 9, Sboxes: []int{13}})},
	}
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(req JobRequest) (int, ErrorBody) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); err != nil {
			t.Fatalf("%s: Validate alone rejects it (%v); the case tests nothing", tc.name, err)
		}
		code, body := post(tc.req)
		if code != http.StatusBadRequest || body.Code != CodeInvalidRequest {
			t.Errorf("%s: HTTP %d %+v, want 400 %s", tc.name, code, body, CodeInvalidRequest)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d job records", len(jobs))
	}
	if code, body := post(campaign(FaultSpec{Sbox: 15, Bit: 3, Cycle: intp(0)})); code != http.StatusAccepted {
		t.Fatalf("a valid campaign: HTTP %d %+v", code, body)
	}
}

// The service's campaign result must be bit-identical to a direct
// library-level Campaign.Execute with the same parameters.
func TestCampaignJobMatchesDirectExecute(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CheckpointEveryRuns: 128})
	st, err := s.Submit(campaignRequest(300, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Campaign == nil {
		t.Fatal("done campaign job has no campaign result")
	}

	direct := directCampaignResult(t, 300, "prime")
	if *final.Result.Campaign != direct {
		t.Errorf("service result %+v != direct %+v", *final.Result.Campaign, direct)
	}
}

// directCampaignResult runs the same campaign through the library path.
func directCampaignResult(t *testing.T, runs int, entropy string) CampaignResult {
	t.Helper()
	req := campaignRequest(runs, entropy)
	d, err := BuildDesign(req.Design)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := buildCampaign(d, req.Campaign, EngineDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewCampaignResult(res)
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CheckpointEveryRuns: 64})
	// A long first job keeps the single worker busy while we cancel the
	// second, still-queued one.
	first, err := s.Submit(campaignRequest(4096, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(campaignRequest(4096, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, first.ID)
	if final.State != StateCanceled {
		t.Fatalf("running job after cancel finished %s", final.State)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel of unknown job: %v", err)
	}
}

func TestQueueShedsLoadWhenFull(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1, CheckpointEveryRuns: 64})
	// Occupy the worker, then fill the single-slot backlog.
	busy, err := s.Submit(campaignRequest(1<<20, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	sawFull := false
	ids := []string{busy.ID}
	for i := 0; i < 8; i++ {
		st, err := s.Submit(campaignRequest(64, "prime"))
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if !sawFull {
		t.Error("queue never reported full")
	}
	for _, id := range ids {
		s.Cancel(id)
	}
}

// A cancelled queued job leaves the queue at once: it holds no backlog slot,
// so Submit accepts new work while the only worker is still busy.
func TestCancelFreesQueueSlot(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 2, CheckpointEveryRuns: 64})
	busy, err := s.Submit(campaignRequest(1<<24, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); s.QueueLen() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never took the first job")
		}
	}
	for i := 0; i < 2; i++ {
		st, err := s.Submit(campaignRequest(64, "prime"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.QueueLen(); n != 0 {
		t.Fatalf("queue holds %d cancelled jobs", n)
	}
	st, err := s.Submit(campaignRequest(64, "prime"))
	if err != nil {
		t.Fatalf("submit after cancelling the backlog: %v", err)
	}
	s.Cancel(st.ID)
	s.Cancel(busy.ID)
}

// A restart re-enqueues every unfinished job on disk, whatever QueueDepth
// says and however the backlog is spread: four jobs come back under a
// two-job bound.
func TestRestartReenqueuesWholeBacklog(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, QueueDepth: 8, StateDir: dir, CheckpointEveryRuns: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(campaignRequest(1<<24, "prime")); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"j000002", "j000004"} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = newTestService(t, Config{Workers: 2, QueueDepth: 2, StateDir: dir, CheckpointEveryRuns: 64})
	var unfinished []string
	for _, st := range s.List() {
		if !st.State.Terminal() {
			unfinished = append(unfinished, st.ID)
		}
	}
	if want := []string{"j000000", "j000001", "j000003", "j000005"}; !slices.Equal(unfinished, want) {
		t.Fatalf("unfinished after restart %v, want %v", unfinished, want)
	}

	// Each restored job is really served: the two workers start the
	// oldest pair while the other two wait, and cancelling the running
	// pair starts the rest.
	waitRunning(t, s, "j000000", "j000001")
	if n := s.QueueLen(); n != 2 {
		t.Fatalf("queue holds %d jobs beside the running pair, want 2", n)
	}
	for _, id := range []string{"j000000", "j000001"} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	waitRunning(t, s, "j000003", "j000005")
	if n := s.QueueLen(); n != 0 {
		t.Fatalf("queue holds %d jobs after the backlog started, want 0", n)
	}
	for _, id := range []string{"j000003", "j000005"} {
		s.Cancel(id)
	}
}

// TestRestartKeepsJobStatus: a restarted service shows a finished job as
// the process that ran it did — its state, result, progress and its
// submission, start and finish times. A sweep's and a proof's terminal
// records leave their unit lists to the commits, and the restart puts them
// back.
func TestRestartKeepsJobStatus(t *testing.T) {
	design := DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"}
	for _, tc := range []struct {
		name string
		req  JobRequest
	}{
		{"campaign", campaignRequest(128, "prime")},
		{"multifault", JobRequest{Kind: KindMultiFault, Design: design, MultiFault: &MultiFaultSpec{
			K: 2, Sboxes: []int{13}, RunsPerTuple: 64, Seed: 0x5C0E, Key: testKey,
		}}},
		{"prove", JobRequest{Kind: KindProve, Design: design, Prove: &ProveSpec{Models: []string{"bit-flip"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Config{Workers: 1, StateDir: dir, CheckpointEveryRuns: 64})
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			before := waitTerminal(t, s, st.ID)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if before.State != StateDone || before.Result == nil || before.Progress == nil || before.Started == nil || before.Finished == nil {
				t.Fatalf("finished job %+v lacks part of the status a restart must keep", before)
			}

			after, err := newTestService(t, Config{Workers: 1, StateDir: dir}).Get(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(before)
			a, _ := json.Marshal(after)
			if !bytes.Equal(a, b) {
				t.Fatalf("status after a restart\n %s\nwant\n %s", a, b)
			}
		})
	}
}

// waitRunning waits until exactly the given jobs are running.
func waitRunning(t *testing.T, s *Service, ids ...string) {
	t.Helper()
	var running []string
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		running = running[:0]
		for _, st := range s.List() {
			if st.State == StateRunning {
				running = append(running, st.ID)
			}
		}
		if slices.Equal(running, ids) {
			return
		}
	}
	t.Fatalf("running %v, want %v", running, ids)
}

func TestAreaAndLintJobs(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})

	area, err := s.Submit(JobRequest{Kind: KindArea, Design: DesignSpec{Cipher: "present80", Scheme: "naive"}})
	if err != nil {
		t.Fatal(err)
	}
	lintClean, err := s.Submit(JobRequest{Kind: KindLint, Design: DesignSpec{Cipher: "present80", Scheme: "three-in-one"}})
	if err != nil {
		t.Fatal(err)
	}

	st := waitTerminal(t, s, area.ID)
	if st.State != StateDone || st.Result == nil || st.Result.Area == nil {
		t.Fatalf("area job: %s (%s)", st.State, st.Error)
	}
	if st.Result.Area.Total <= 0 || st.Result.Area.CellCount <= 0 {
		t.Errorf("area result empty: %+v", st.Result.Area)
	}

	st = waitTerminal(t, s, lintClean.ID)
	if st.State != StateDone || st.Result == nil || st.Result.Lint == nil {
		t.Fatalf("lint job: %s (%s)", st.State, st.Error)
	}
	if !st.Result.Lint.Clean() {
		t.Errorf("three-in-one core should lint clean, found %d findings", st.Result.Lint.Findings)
	}
}

// An uploaded text netlist reaches the linter through ReadTextLax.
func TestLintJobOnUploadedNetlist(t *testing.T) {
	d, err := core.Build(present.Spec(), core.Options{Scheme: core.SchemeThreeInOne, Engine: synth.EngineANF})
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := d.Mod.WriteText(&nl); err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Config{Workers: 1})
	st, err := s.Submit(JobRequest{
		Kind:   KindLint,
		Design: DesignSpec{Netlist: nl.String()},
		Lint:   &LintSpec{Rules: []string{"structural"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone || final.Result == nil || final.Result.Lint == nil {
		t.Fatalf("netlist lint job: %s (%s)", final.State, final.Error)
	}

	if _, err := netlist.ReadTextLax(strings.NewReader(nl.String())); err != nil {
		t.Fatalf("round-trip sanity: %v", err)
	}
}

func TestAttackJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("attack jobs build several designs")
	}
	s := newTestService(t, Config{Workers: 2})
	sbox, bit := 13, 2

	dfa, err := s.Submit(JobRequest{
		Kind:   KindDFA,
		Design: DesignSpec{Cipher: "present80", Scheme: "unprotected"},
		Attack: &AttackSpec{Key: testKey, PairsPerNibble: 16, Model: "bit-flip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sifa, err := s.Submit(JobRequest{
		Kind:   KindSIFA,
		Design: DesignSpec{Cipher: "present80", Scheme: "naive"},
		Attack: &AttackSpec{Key: testKey, Sbox: &sbox, Bit: &bit, Injections: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	fta, err := s.Submit(JobRequest{
		Kind:   KindFTA,
		Design: DesignSpec{Cipher: "present80", Scheme: "naive"},
		Attack: &AttackSpec{Key: testKey, Sbox: &sbox, Repeats: 32, ProfilePTs: 4, AttackPTs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	st := waitTerminal(t, s, dfa.ID)
	if st.State != StateDone || st.Result == nil || st.Result.DFA == nil {
		t.Fatalf("dfa job: %s (%s)", st.State, st.Error)
	}
	if !st.Result.DFA.Succeeded {
		t.Errorf("DFA against the unprotected core should succeed: %s", st.Result.DFA.Detail)
	}
	if got := [2]U64{st.Result.DFA.RecoveredKey[0], st.Result.DFA.RecoveredKey[1]}; got != testKey {
		t.Errorf("recovered key %v != %v", got, testKey)
	}

	st = waitTerminal(t, s, sifa.ID)
	if st.State != StateDone || st.Result == nil || st.Result.SIFA == nil {
		t.Fatalf("sifa job: %s (%s)", st.State, st.Error)
	}
	st = waitTerminal(t, s, fta.ID)
	if st.State != StateDone || st.Result == nil || st.Result.FTA == nil {
		t.Fatalf("fta job: %s (%s)", st.State, st.Error)
	}
}

func TestMetricsCountJobs(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CheckpointEveryRuns: 64})
	st, err := s.Submit(campaignRequest(128, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	snap := s.Metrics.Snapshot()
	if snap["jobs_submitted_total"] != 1 || snap["jobs_completed_total"] != 1 {
		t.Errorf("job counters: %v", snap)
	}
	if snap["runs_simulated_total"] != 128 {
		t.Errorf("runs_simulated_total = %d, want 128", snap["runs_simulated_total"])
	}
	if snap["checkpoints_total"] < 2 {
		t.Errorf("checkpoints_total = %d, want >= 2", snap["checkpoints_total"])
	}
}

func TestWatchDeliversProgressAndResult(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CheckpointEveryRuns: 64})
	// Keep the single worker busy until the watch is subscribed so no
	// progress event can fire before we listen.
	blocker, err := s.Submit(campaignRequest(1<<20, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(campaignRequest(320, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	ch, off, err := s.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer off()
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	progress, result := 0, 0
	lastDone := -1
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				if result == 0 {
					// The result event can be dropped under load;
					// terminal close is the authoritative signal.
					final := waitTerminal(t, s, st.ID)
					if final.State != StateDone {
						t.Fatalf("job %s", final.State)
					}
				}
				if progress == 0 {
					t.Error("no progress events delivered")
				}
				return
			}
			switch ev.Type {
			case "progress":
				progress++
				if ev.Progress.Done <= lastDone {
					t.Errorf("progress not monotone: %d after %d", ev.Progress.Done, lastDone)
				}
				lastDone = ev.Progress.Done
			case "result":
				result++
				if ev.Job == nil || ev.Job.Result == nil {
					t.Error("result event without payload")
				}
			}
		case <-deadline:
			t.Fatal("watch timed out")
		}
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(campaignRequest(64, "prime")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v", err)
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainKeepsFinishedBatches: a drain that cuts a chunk short keeps the
// batches that finished, so the restarted service simulates exactly the
// runs after the drained checkpoint and replays none.
func TestDrainKeepsFinishedBatches(t *testing.T) {
	const runs = 160 * 64
	cfg := Config{Workers: 1, SimWorkers: 1, CheckpointEveryRuns: 512, StateDir: t.TempDir()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(campaignRequest(runs, "prime"))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(time.Millisecond) {
		cur, err := s.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished %s before the drain", cur.State)
		}
		if cur.Progress != nil && cur.Progress.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint before the deadline")
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mid, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != StateQueued || mid.Progress == nil || mid.Progress.Done >= runs {
		t.Fatalf("after the drain: %s, progress %+v; want queued mid-campaign", mid.State, mid.Progress)
	}

	s = newTestService(t, cfg)
	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job finished %s (%s)", final.State, final.Error)
	}
	if direct := directCampaignResult(t, runs, "prime"); *final.Result.Campaign != direct {
		t.Errorf("resumed result %+v != direct %+v", *final.Result.Campaign, direct)
	}
	m := s.Metrics.Snapshot()
	if want := int64(runs - mid.Progress.Done); m["runs_simulated_total"] != want {
		t.Errorf("restart simulated %d runs, want the %d after the drained checkpoint", m["runs_simulated_total"], want)
	}
	if m["runs_replayed_total"] != 0 {
		t.Errorf("restart replayed %d runs, want 0", m["runs_replayed_total"])
	}
}

// TestSingleNodeJobsClaimTheirLeases: concurrent campaign jobs on a
// single-node service claim their own chunk leases, which the lease table
// lists with no worker and no deadline while the listing is read, and each
// result equals a direct Execute.
func TestSingleNodeJobsClaimTheirLeases(t *testing.T) {
	const runs = 4096
	s := newTestService(t, Config{Workers: 3, CheckpointEveryRuns: 64})
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(campaignRequest(runs, "prime"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	listed := 0
	for _, id := range ids {
		for st, _ := s.Get(id); !st.State.Terminal(); st, _ = s.Get(id) {
			for _, l := range s.Leases() {
				if l.Worker != "" || l.Expires != nil {
					t.Fatalf("single-node lease %+v has a worker or a deadline", l)
				}
				listed++
			}
		}
	}
	if listed == 0 {
		t.Error("the lease table never listed a running job's leases")
	}
	direct := directCampaignResult(t, runs, "prime")
	for _, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		if *st.Result.Campaign != direct {
			t.Errorf("job %s: %+v, want %+v", id, *st.Result.Campaign, direct)
		}
	}
	if n := len(s.Leases()); n != 0 {
		t.Errorf("%d leases outlive their jobs", n)
	}
	if m := s.Metrics.Snapshot(); m["leases_granted_total"] != 0 || m["leases_completed_total"] != 0 {
		t.Errorf("claims counted as fleet leases: %v", m)
	}
}
