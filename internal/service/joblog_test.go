package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// logFrame is one framed record of a state log: a type byte, the payload
// length and CRC (little-endian uint32s), then the payload.
type logFrame struct {
	typ      byte
	off, end int
	payload  []byte
}

// readLog reads a state dir's log and splits it into frames.
func readLog(t testing.TB, dir string) ([]byte, []logFrame) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	var frames []logFrame
	for off := 0; off < len(b); {
		if len(b)-off < 9 {
			t.Fatalf("torn frame header at offset %d", off)
		}
		end := off + 9 + int(binary.LittleEndian.Uint32(b[off+1:]))
		if end > len(b) {
			t.Fatalf("torn frame at offset %d", off)
		}
		frames = append(frames, logFrame{typ: b[off], off: off, end: end, payload: b[off+9 : end]})
		off = end
	}
	return b, frames
}

// jobRecords decodes a log's job records, in log order.
func jobRecords(t testing.TB, frames []logFrame) []jobRecord {
	t.Helper()
	var recs []jobRecord
	for _, f := range frames {
		if f.typ != 'J' {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(f.payload, &rec); err != nil {
			t.Fatalf("job record at offset %d: %v", f.off, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// finished waits for a job's event stream to close and returns its final
// status.
func finished(t testing.TB, s *Service, id string) JobStatus {
	t.Helper()
	ch, off, err := s.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer off()
	timeout := time.After(2 * time.Minute)
	for {
		select {
		case _, open := <-ch:
			if !open {
				st, err := s.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
		case <-timeout:
			t.Fatalf("job %s did not finish", id)
		}
	}
}

// drainMidRun submits the requests to a service on cfg, waits until each
// job has committed all but its last two units (or finished), drains the
// service and returns the job IDs.
func drainMidRun(t testing.TB, cfg Config, reqs ...JobRequest) []string {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, req := range reqs {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(50 * time.Microsecond) {
			st, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if p := st.Progress; st.State.Terminal() || (p != nil && p.Done > 0 && p.Done >= p.Total-2*unitSize(st.Kind)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s made no progress", id)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// unitSize is one commit's progress step in the small jobs these tests run:
// a 64-run batch for campaigns, one placement for sweeps.
func unitSize(k Kind) int {
	if k == KindCampaign {
		return 64
	}
	return 1
}

// tornJobs are a small campaign and a small k=2 sweep on the cheapest core
// to build, so a restart costs milliseconds.
func tornJobs() []JobRequest {
	design := DesignSpec{Cipher: "present80", Scheme: "unprotected", Entropy: "prime"}
	return []JobRequest{
		{Kind: KindCampaign, Design: design, Campaign: &CampaignSpec{
			Runs: 6 * 64, Seed: 0x5C0E, Key: testKey, Faults: []FaultSpec{{Sbox: 13, Bit: 2}},
		}},
		{Kind: KindMultiFault, Design: design, MultiFault: &MultiFaultSpec{
			K: 2, Sboxes: []int{13}, RunsPerTuple: 64, Seed: 0x5C0E, Key: testKey,
		}},
	}
}

// TestJobLogTornCommitResumes: a crash can tear the state log anywhere. A
// campaign job and a multifault job are drained mid-run; for every offset
// inside each job's last commit record, a copy of the log cut there opens
// cleanly, and both jobs resume from their last surviving commit and finish
// bit-identical to an uninterrupted run.
func TestJobLogTornCommitResumes(t *testing.T) {
	reqs := tornJobs()
	plain := newTestService(t, Config{Workers: 2})
	var want [][]byte
	for _, req := range reqs {
		st, err := plain.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(finished(t, plain, st.ID).Result)
		want = append(want, b)
	}

	dir := t.TempDir()
	cfg := Config{Workers: 2, SimWorkers: 1, CheckpointEveryRuns: 64, StateDir: dir}
	ids := drainMidRun(t, cfg, reqs...)
	log, frames := readLog(t, dir)
	last := map[string]logFrame{}
	for _, f := range frames {
		var rec jobRecord
		if f.typ == 'J' && json.Unmarshal(f.payload, &rec) == nil && rec.Checkpoint != nil {
			last[rec.ID] = f
		}
	}

	cuts := 0
	for _, id := range ids {
		f, ok := last[id]
		if !ok {
			t.Fatalf("job %s logged no commit", id)
		}
		for cut := f.off; cut < f.end; cut++ {
			torn := t.TempDir()
			if err := os.WriteFile(filepath.Join(torn, "results.log"), log[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			cfg.StateDir = torn
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("cut at %d: New: %v", cut, err)
			}
			if got := s.results.RecoveredBytes(); got != int64(cut-f.off) {
				t.Errorf("cut at %d: recovered %d bytes, want the %d of the torn commit", cut, got, cut-f.off)
			}
			for i, jid := range ids {
				st := finished(t, s, jid)
				got, _ := json.Marshal(st.Result)
				if st.State != StateDone || !bytes.Equal(got, want[i]) {
					t.Fatalf("cut at %d: job %s ended %s (%s)\n got  %s\n want %s", cut, jid, st.State, st.Error, got, want[i])
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			cuts++
		}
	}
	t.Logf("%d cuts across the two last commits", cuts)
}

// TestJobLogRecordsBounded: no job record grows with its job. Every record
// of a sweep of 276 placements — submission, one commit per placement,
// lifecycle changes and the terminal result — fits one fixed bound, and the
// state dir holds the log alone.
func TestJobLogRecordsBounded(t *testing.T) {
	const bound = 2048
	dir := t.TempDir()
	s := newTestService(t, Config{Workers: 1, StateDir: dir})
	st, err := s.Submit(JobRequest{
		Kind:   KindMultiFault,
		Design: DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
		MultiFault: &MultiFaultSpec{
			K: 2, Sboxes: []int{0, 1, 2}, RunsPerTuple: 64, Seed: 0x5C0E, Key: testKey,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := finished(t, s, st.ID)
	if final.State != StateDone || final.Result.MultiFault.Planned < 256 {
		t.Fatalf("sweep ended %s (%s), want done with >= 256 placements", final.State, final.Error)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "results.log" {
		t.Errorf("state dir holds %v, want results.log alone", entries)
	}
	_, frames := readLog(t, dir)
	commits, largest := 0, 0
	for _, f := range frames {
		if f.typ != 'J' {
			continue
		}
		largest = max(largest, len(f.payload))
		if len(f.payload) > bound {
			t.Errorf("job record at offset %d is %d bytes, over the %d-byte bound", f.off, len(f.payload), bound)
		}
	}
	for _, rec := range jobRecords(t, frames) {
		if rec.Checkpoint != nil {
			commits++
		}
	}
	if commits != final.Result.MultiFault.Planned {
		t.Errorf("%d commit records for %d placements", commits, final.Result.MultiFault.Planned)
	}
	t.Logf("%d placements, largest job record %d bytes", final.Result.MultiFault.Planned, largest)
}

// TestJobLogRefusesOversizedSubmission: a submission the HTTP layer accepts
// either fits one log frame or is a 400 before it gets an ID. An inline
// netlist of 3 MiB of '<' passes the 8 MiB body cap but re-encodes to 18
// MiB of < escapes.
func TestJobLogRefusesOversizedSubmission(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, StateDir: t.TempDir()})
	body := `{"kind":"lint","design":{"netlist":"` + strings.Repeat("<", 3<<20) + `"}}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), CodeInvalidRequest) {
		t.Fatalf("oversized submission: %d %s, want 400 %s", rec.Code, rec.Body.String(), CodeInvalidRequest)
	}
	st, err := s.Submit(JobRequest{Kind: KindArea, Design: DesignSpec{Cipher: "present80"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000000" || len(s.List()) != 1 {
		t.Errorf("the refused submission took an ID: next is %s, %d jobs listed", st.ID, len(s.List()))
	}
}
