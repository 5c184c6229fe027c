package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCampaignKeyCodec feeds arbitrary bytes to the key decoder. Anything it
// accepts must re-encode to a decodable, semantically identical key — the
// content address may never depend on which of several byte spellings it was
// decoded from.
func FuzzCampaignKeyCodec(f *testing.F) {
	f.Add(testKey(7).Encode())
	f.Add(CampaignKey{Engine: "e"}.Encode())
	f.Add(persistentKey(7).Encode())
	f.Add([]byte{'K', campaignKeyVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := DecodeCampaignKey(data)
		if err != nil {
			return
		}
		k2, err := DecodeCampaignKey(k.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted key failed: %v", err)
		}
		if !reflect.DeepEqual(normalize(k), normalize(k2)) {
			t.Fatalf("key not stable across re-encode:\n in: %+v\nout: %+v", k, k2)
		}
		if k.Digest() != k2.Digest() {
			t.Fatal("digest not stable across re-encode")
		}
	})
}

// FuzzCampaignKeyFields builds keys from arbitrary field values and checks
// the exact round-trip plus digest sensitivity to the seed.
func FuzzCampaignKeyFields(f *testing.F) {
	f.Add([]byte("netlist"), "scone-campaign/1-lanes64", uint64(1), uint64(2), uint64(3),
		uint32(1723), byte(0), int32(31), int32(31), uint64(0))
	f.Add([]byte{}, "", ^uint64(0), uint64(0), ^uint64(0),
		uint32(0), byte(255), int32(-1), int32(-1), ^uint64(0))
	f.Fuzz(func(t *testing.T, netlist []byte, engine string, key0, key1, seed uint64,
		net uint32, model byte, from, to int32, lanes uint64) {
		k := CampaignKey{
			Netlist: HashBytes(netlist),
			Engine:  engine,
			Key:     [2]uint64{key0, key1},
			Seed:    seed,
			Faults:  []FaultPoint{{Net: net, Model: model, FromCycle: from, ToCycle: to, Lanes: lanes}},
		}
		got, err := DecodeCampaignKey(k.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(k, got) {
			t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", k, got)
		}
		k2 := k
		k2.Seed = seed + 1
		if k2.Digest() == k.Digest() {
			t.Fatal("seed change did not change the digest")
		}
	})
}

// FuzzBatchRecordCodec checks the batch record payload codec the same way.
func FuzzBatchRecordCodec(f *testing.F) {
	f.Add(encodeBatch(BatchKey{Campaign: testKey(1).Digest(), Batch: 3, Runs: 64}, batchCounts(64, 5)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, c, err := decodeBatch(data)
		if err != nil {
			return
		}
		k2, c2, err := decodeBatch(encodeBatch(k, c))
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if k != k2 || c != c2 {
			t.Fatalf("record not stable: (%+v,%+v) vs (%+v,%+v)", k, c, k2, c2)
		}
	})
}

// FuzzLogRecovery opens a store over arbitrary file contents. Whatever the
// bytes, Open must succeed — corruption costs cache entries, never the store
// — and the recovered store must accept and persist new records.
func FuzzLogRecovery(f *testing.F) {
	// Seed with a valid two-record log, a torn tail, a log holding a job
	// record beside the other two kinds, and pure garbage.
	seedLog := func(put func(s *Store)) []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.log")
		s, err := Open(path)
		if err != nil {
			f.Fatal(err)
		}
		put(s)
		s.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	addr := testKey(11).Digest()
	valid := seedLog(func(s *Store) {
		s.PutBatch(BatchKey{Campaign: addr, Batch: 0, Runs: 64}, batchCounts(64, 1))
		s.PutRun(RunRecord{ID: "j000001", State: "done"})
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(seedLog(func(s *Store) {
		s.PutBatch(BatchKey{Campaign: addr, Batch: 0, Runs: 64}, batchCounts(64, 1))
		s.PutRun(RunRecord{ID: "j000001", State: "running"})
		s.PutJob([]byte(`{"id":"j000001","kind":"campaign","state":"running","checkpoint":{"next_batch":1,"counts":{"total":64}}}`))
	}))
	f.Add([]byte("not a log at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("Open on arbitrary bytes must recover, got: %v", err)
		}
		k := BatchKey{Campaign: HashBytes(data), Batch: 1, Runs: 64}
		if err := s.PutBatch(k, batchCounts(64, 7)); err != nil {
			t.Fatalf("recovered store rejected a put: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after recovery+put: %v", err)
		}
		defer s2.Close()
		if got, ok := s2.GetBatch(k); !ok || got != batchCounts(64, 7) {
			t.Fatalf("put after recovery did not survive reopen: %+v ok=%v", got, ok)
		}
	})
}
