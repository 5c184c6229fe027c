package service

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// simCompileMisses points the simulator's instruments at a fresh registry
// for the rest of the test and returns a reader of its
// scone_sim_compile_cache_misses_total.
func simCompileMisses(t *testing.T) func() int {
	t.Helper()
	reg := obs.NewRegistry()
	sim.EnableObservability(reg)
	t.Cleanup(func() { sim.EnableObservability(nil) })
	return func() int {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "scone_sim_compile_cache_misses_total" {
				n, err := strconv.Atoi(f[1])
				if err != nil {
					t.Fatalf("bad metric line %q", line)
				}
				return n
			}
		}
		return 0
	}
}

func TestDesignCacheCanonicalKey(t *testing.T) {
	c := NewDesignCache()
	get := func(ds DesignSpec) *designEntry {
		t.Helper()
		e, err := c.get(ds)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	def := get(DesignSpec{})
	if e := get(DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime", Engine: "anf"}); e != def {
		t.Error("the zero DesignSpec and its spelled-out defaults built separate designs")
	}
	naive := get(DesignSpec{Scheme: "naive"})
	if e := get(DesignSpec{Scheme: "naive-duplication"}); e != naive {
		t.Error("a scheme alias built a second design")
	}
	if naive == def || get(DesignSpec{Cipher: "gift64"}) == def {
		t.Error("distinct designs shared an entry")
	}
	if _, err := c.get(DesignSpec{Netlist: "module m\n"}); err == nil {
		t.Error("an inline netlist entered the design cache")
	}
	if len(c.entries) != 3 {
		t.Errorf("cache holds %d entries, want 3", len(c.entries))
	}

	// Build errors are not cached: every request retries the build.
	bad := DesignSpec{Scheme: "masked", Entropy: "per-round"}
	for i := 0; i < 2; i++ {
		if _, err := c.get(bad); err == nil {
			t.Fatal("a masked per-round design built")
		}
	}
	if len(c.entries) != 3 {
		t.Errorf("a failed build stayed cached: %d entries", len(c.entries))
	}
}

func TestDesignCacheEvictsOldestFirst(t *testing.T) {
	c := NewDesignCache()
	var specs []DesignSpec
	for _, cipher := range []string{"present80", "gift64", "scone64"} {
		for _, scheme := range []string{"unprotected", "naive", "acisp", "three-in-one", "correct", "masked"} {
			specs = append(specs, DesignSpec{Cipher: cipher, Scheme: scheme})
		}
	}
	var first *designEntry
	built := 0
	for _, ds := range specs {
		e, err := c.get(ds)
		if err != nil {
			continue // the masked scheme needs a bit-permutation layer
		}
		if first == nil {
			first = e
		}
		built++
	}
	if built <= designCacheSize {
		t.Fatalf("only %d designs built; the test needs more than %d", built, designCacheSize)
	}
	if len(c.entries) != designCacheSize {
		t.Fatalf("cache holds %d entries, want the bound %d", len(c.entries), designCacheSize)
	}
	again, err := c.get(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("the oldest entry survived eviction")
	}
	// A holder of the evicted entry keeps a working design.
	if _, err := buildCampaign(first.d, campaignRequest(64, "prime").Campaign, EngineDefaults{}); err != nil {
		t.Fatal(err)
	}
}

func TestDesignCacheBuildsOnceConcurrently(t *testing.T) {
	misses := simCompileMisses(t)
	c := NewDesignCache()
	const callers = 8
	entries := make([]*designEntry, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e, err := c.get(DesignSpec{Entropy: "per-sbox"})
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}()
	}
	close(start)
	wg.Wait()
	for i, e := range entries {
		if e != entries[0] {
			t.Fatalf("caller %d got a different design", i)
		}
	}
	if n := misses(); n != 1 {
		t.Fatalf("%d concurrent first requests compiled %d times, want once", callers, n)
	}
}

// TestDesignCacheCompilesOncePerSpec runs a service's campaign traffic over
// a few repeated specs: each spec compiles once, and a multifault sweep and
// a Results query on an already built spec compile nothing.
func TestDesignCacheCompilesOncePerSpec(t *testing.T) {
	misses := simCompileMisses(t)
	s := newTestService(t, Config{Workers: 2})
	entropies := []string{"prime", "per-round", "per-sbox"}
	var ids []string
	for i := 0; i < 12; i++ {
		req := campaignRequest(128, entropies[i%3])
		req.Campaign.Seed = U64(i + 1)
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if n := misses(); n != 3 {
		t.Fatalf("12 campaign jobs over 3 specs compiled %d times, want 3", n)
	}

	sweep, err := s.Submit(JobRequest{
		Kind:   KindMultiFault,
		Design: campaignRequest(64, "prime").Design,
		MultiFault: &MultiFaultSpec{
			K: 2, Sboxes: []int{13}, MaxTuples: 3, RunsPerTuple: 64, Seed: 7, Key: testKey,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, sweep.ID); st.State != StateDone {
		t.Fatalf("sweep: %s (%s)", st.State, st.Error)
	}
	if _, err := s.Results(campaignRequest(256, "per-round")); err != nil {
		t.Fatal(err)
	}
	if n := misses(); n != 3 {
		t.Fatalf("a sweep and a Results query on built specs compiled %d more times", n-3)
	}
}

// TestDesignCacheSurvivesFTAJob guards the cache against the FTA attack,
// which rewires its design's netlist in place: a campaign that follows an
// FTA job on the same spec must tally exactly as on a fresh service.
func TestDesignCacheSurvivesFTAJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an FTA attack")
	}
	sbox := 13
	design := DesignSpec{Cipher: "present80", Scheme: "naive"}
	campaign := campaignRequest(256, "prime")
	campaign.Design = design
	run := func(s *Service, req JobRequest) JobStatus {
		t.Helper()
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st = waitTerminal(t, s, st.ID)
		if st.State != StateDone {
			t.Fatalf("%s job: %s (%s)", req.Kind, st.State, st.Error)
		}
		return st
	}

	s := newTestService(t, Config{Workers: 1})
	cached, err := s.designs.get(design) // the spec is cached before the attack
	if err != nil {
		t.Fatal(err)
	}
	cells, nets := len(cached.d.Mod.Cells), cached.d.Mod.NumNets()
	run(s, JobRequest{
		Kind:   KindFTA,
		Design: design,
		Attack: &AttackSpec{Key: testKey, Sbox: &sbox, Repeats: 32, ProfilePTs: 4, AttackPTs: 4},
	})
	if len(cached.d.Mod.Cells) != cells || cached.d.Mod.NumNets() != nets {
		t.Fatal("the FTA job rewired the cached design")
	}
	got := run(s, campaign).Result.Campaign
	want := run(newTestService(t, Config{Workers: 1}), campaign).Result.Campaign
	if *got != *want {
		t.Fatalf("campaign after an FTA job = %+v, fresh service = %+v", *got, *want)
	}
}
