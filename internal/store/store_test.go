package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

func testKey(seed uint64) CampaignKey {
	return CampaignKey{
		Netlist: HashBytes([]byte("module m\nend\n")),
		Engine:  "scone-campaign/1-lanes64",
		Key:     [2]uint64{0x0123456789ABCDEF, 0x8421},
		Seed:    seed,
		Faults: []FaultPoint{
			{Net: 1723, Model: 0, FromCycle: 31, ToCycle: 31},
			{Net: 42, Model: 2, FromCycle: -1, ToCycle: -1, Lanes: 0xF0F0},
		},
	}
}

func batchCounts(runs, det int) Counts {
	return Counts{Total: runs, Ineffective: runs - det, Detected: det}
}

func persistentKey(seed uint64) CampaignKey {
	k := testKey(seed)
	k.Faults = nil
	k.Persistent = &PersistentPoint{Entry: 11, Mask: 0x4}
	return k
}

func TestCampaignKeyRoundTrip(t *testing.T) {
	keys := []CampaignKey{
		testKey(7),
		{Engine: "e"},
		{Netlist: HashBytes(nil), Engine: "", Seed: ^uint64(0), Faults: []FaultPoint{{}}},
	}
	for i, k := range keys {
		got, err := DecodeCampaignKey(k.Encode())
		if err != nil {
			t.Fatalf("key %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(k), normalize(got)) {
			t.Fatalf("key %d: round-trip mismatch:\n in: %+v\nout: %+v", i, k, got)
		}
		if got.Digest() != k.Digest() {
			t.Fatalf("key %d: digest changed across round-trip", i)
		}
	}
}

// normalize maps nil and empty fault slices together (the codec cannot and
// need not distinguish them).
func normalize(k CampaignKey) CampaignKey {
	if len(k.Faults) == 0 {
		k.Faults = nil
	}
	return k
}

func TestCampaignKeyDigestSensitivity(t *testing.T) {
	base := testKey(7)
	mutations := map[string]func(*CampaignKey){
		"netlist": func(k *CampaignKey) { k.Netlist[0] ^= 1 },
		"engine":  func(k *CampaignKey) { k.Engine = "scone-campaign/2" },
		"key":     func(k *CampaignKey) { k.Key[1]++ },
		"seed":    func(k *CampaignKey) { k.Seed++ },
		"fault":   func(k *CampaignKey) { k.Faults[0].Net++ },
		"model":   func(k *CampaignKey) { k.Faults[1].Model = 1 },
		"cycle":   func(k *CampaignKey) { k.Faults[0].ToCycle++ },
	}
	for name, mutate := range mutations {
		k := testKey(7)
		k.Faults = append([]FaultPoint(nil), base.Faults...)
		mutate(&k)
		if k.Digest() == base.Digest() {
			t.Errorf("mutating %s did not change the digest", name)
		}
	}
}

func TestCampaignKeyDecodeRejectsTrailing(t *testing.T) {
	b := append(testKey(1).Encode(), 0)
	if _, err := DecodeCampaignKey(b); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeCampaignKey(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestStorePutGetPersist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	addr := testKey(9).Digest()
	k0 := BatchKey{Campaign: addr, Batch: 0, Runs: 64}
	k5 := BatchKey{Campaign: addr, Batch: 5, Runs: 32} // final partial batch
	if _, ok := s.GetBatch(k0); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.PutBatch(k0, batchCounts(64, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(k5, batchCounts(32, 1)); err != nil {
		t.Fatal(err)
	}
	rec := RunRecord{ID: "j000001", Kind: "campaign", State: "running",
		Campaign: addr.String(), Runs: 352, Batches: 6, Submitted: time.Now().UTC()}
	if err := s.PutRun(rec); err != nil {
		t.Fatal(err)
	}
	rec.State = "done"
	rec.SimulatedBatches = 6
	if err := s.PutRun(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.GetBatch(k0); !ok || got != batchCounts(64, 3) {
		t.Fatalf("batch 0 after reopen: %+v ok=%v", got, ok)
	}
	if got, ok := s2.GetBatch(k5); !ok || got != batchCounts(32, 1) {
		t.Fatalf("batch 5 after reopen: %+v ok=%v", got, ok)
	}
	if s2.BatchCount() != 2 {
		t.Fatalf("batch count = %d, want 2", s2.BatchCount())
	}
	runs := s2.Runs()
	if len(runs) != 1 || runs[0].State != "done" || runs[0].SimulatedBatches != 6 {
		t.Fatalf("run records after reopen: %+v", runs)
	}
	if got, ok := s2.Run("j000001"); !ok || got.Campaign != addr.String() {
		t.Fatalf("Run lookup: %+v ok=%v", got, ok)
	}
}

func TestStoreRejectsConflictingPut(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "r.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := BatchKey{Campaign: testKey(1).Digest(), Batch: 0, Runs: 64}
	if err := s.PutBatch(k, batchCounts(64, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(k, batchCounts(64, 2)); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
	if err := s.PutBatch(k, batchCounts(64, 3)); err == nil {
		t.Fatal("conflicting counts accepted")
	}
	if got, _ := s.GetBatch(k); got != batchCounts(64, 2) {
		t.Fatalf("original record clobbered: %+v", got)
	}
	// Internally inconsistent counts are rejected before touching the log.
	if err := s.PutBatch(BatchKey{Campaign: k.Campaign, Batch: 1, Runs: 64},
		Counts{Total: 64, Detected: 70}); err == nil {
		t.Fatal("inconsistent counts accepted")
	}
}

func TestStoreRecoversFromTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	addr := testKey(3).Digest()
	for b := 0; b < 4; b++ {
		if err := s.PutBatch(BatchKey{Campaign: addr, Batch: b, Runs: 64}, batchCounts(64, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record in half, as a crash mid-append would.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.BatchCount() != 3 {
		t.Fatalf("after torn tail: %d batches, want 3", s2.BatchCount())
	}
	if s2.RecoveredBytes() == 0 {
		t.Fatal("recovery not reported")
	}
	// The store keeps working: the lost batch can simply be re-put.
	if err := s2.PutBatch(BatchKey{Campaign: addr, Batch: 3, Runs: 64}, batchCounts(64, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.BatchCount() != 4 || s3.RecoveredBytes() != 0 {
		t.Fatalf("after re-put reopen: %d batches, recovered %d", s3.BatchCount(), s3.RecoveredBytes())
	}
}

func TestStoreRecoversFromMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	addr := testKey(4).Digest()
	for b := 0; b < 8; b++ {
		if err := s.PutBatch(BatchKey{Campaign: addr, Batch: b, Runs: 64}, batchCounts(64, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the file: everything from the damaged
	// record on is dropped, everything before it survives.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n := s2.BatchCount()
	if n >= 8 || s2.RecoveredBytes() == 0 {
		t.Fatalf("corruption survived: %d batches, recovered %d", n, s2.RecoveredBytes())
	}
	for b := 0; b < n; b++ {
		if got, ok := s2.GetBatch(BatchKey{Campaign: addr, Batch: b, Runs: 64}); !ok || got != batchCounts(64, b) {
			t.Fatalf("surviving prefix batch %d: %+v ok=%v", b, got, ok)
		}
	}
}

// TestStoreJobRecords: job records are opaque payloads kept in log order
// among the other kinds. Open hands them over once, a payload over the frame
// cap is refused without writing, and a torn job record costs only itself
// and what follows it.
func TestStoreJobRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	addr := testKey(5).Digest()
	jobs := [][]byte{[]byte(`{"id":"j000000","state":"queued"}`), []byte(`{"id":"j000000","state":"running"}`), []byte(`{"id":"j000000","state":"done"}`)}
	for i, p := range jobs {
		if err := s.PutBatch(BatchKey{Campaign: addr, Batch: i, Runs: 64}, batchCounts(64, i)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutJob(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutJob(make([]byte, maxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized job record: %v, want ErrTooLarge", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Jobs(); !reflect.DeepEqual(got, jobs) || s2.RecoveredBytes() != 0 {
		t.Fatalf("reopened job records %q (recovered %d), want %q", got, s2.RecoveredBytes(), jobs)
	}
	if got := s2.Jobs(); got != nil {
		t.Fatalf("second Jobs call returned %q, want nothing", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last job record: the batch before it survives.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Jobs(); !reflect.DeepEqual(got, jobs[:2]) || s3.BatchCount() != 3 {
		t.Fatalf("after a torn job record: %q and %d batches, want %q and 3", got, s3.BatchCount(), jobs[:2])
	}
	if want := int64(frameHeaderLen + len(jobs[2]) - 3); s3.RecoveredBytes() != want {
		t.Fatalf("recovered %d bytes, want %d", s3.RecoveredBytes(), want)
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(filepath.Join(t.TempDir(), "r.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableObservability(reg)
	k := BatchKey{Campaign: testKey(2).Digest(), Batch: 0, Runs: 64}
	s.GetBatch(k)
	if err := s.PutBatch(k, batchCounts(64, 0)); err != nil {
		t.Fatal(err)
	}
	s.GetBatch(k)
	if s.hits.Value() != 1 || s.misses.Value() != 1 || s.puts.Value() != 1 {
		t.Fatalf("hits=%d misses=%d puts=%d, want 1/1/1",
			s.hits.Value(), s.misses.Value(), s.puts.Value())
	}
}

func TestNilStoreIsNoop(t *testing.T) {
	var s *Store
	if _, ok := s.GetBatch(BatchKey{}); ok {
		t.Fatal("nil store hit")
	}
	if err := s.PutBatch(BatchKey{}, Counts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRun(RunRecord{}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob([]byte("{}")); err != nil || s.Jobs() != nil {
		t.Fatalf("nil store job records: err %v", err)
	}
	if s.Runs() != nil || s.BatchCount() != 0 || s.RecoveredBytes() != 0 {
		t.Fatal("nil store reported contents")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.EnableObservability(obs.NewRegistry())
}

func TestRunRecordJSONRoundTrip(t *testing.T) {
	fin := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	rec := RunRecord{
		ID:      "j000002",
		Kind:    "campaign",
		Request: json.RawMessage(`{"kind":"campaign"}`),
		Runs:    640, Batches: 10, ReplayedBatches: 5, SimulatedBatches: 5,
		State: "done", Finished: &fin,
		Result: &Counts{Total: 640, Ineffective: 600, Detected: 40},
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got RunRecord
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", rec, got)
	}
}
