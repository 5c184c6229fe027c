package service

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// FuzzCheckCompletion drives the coordinator's completion check with
// arbitrary lease ranges and per-batch tallies — most of them honest splits
// of their batch, some nudged off by a signed delta. The check must accept a
// report exactly when it carries one tally per batch of the range, each of
// that batch's runs with non-negative outcome counts summing to them, and
// an accepted report must merge to the sum of its tallies.
func FuzzCheckCompletion(f *testing.F) {
	// raw holds 4 bytes per tally: detected share, effective share, which
	// field to nudge (0-4, 5 moves runs into corrected, else none), delta.
	f.Add(uint16(319), uint8(0), uint8(4), []byte{10, 5, 7, 0, 3, 3, 6, 0, 0, 0, 7, 0, 64, 0, 5, 9, 1, 2, 7, 0})
	f.Add(uint16(319), uint8(3), uint8(1), []byte{10, 5, 7, 0, 3, 3, 7, 0})
	f.Add(uint16(99), uint8(1), uint8(0), []byte{30, 2, 5, 11})
	f.Add(uint16(319), uint8(0), uint8(1), []byte{10, 5, 7, 0})
	f.Add(uint16(319), uint8(0), uint8(0), []byte{10, 5, 7, 0, 3, 3, 7, 0})
	f.Add(uint16(127), uint8(0), uint8(1), []byte{10, 5, 0, 1, 3, 3, 7, 0})
	f.Add(uint16(127), uint8(0), uint8(1), []byte{10, 5, 2, 0xff, 3, 3, 7, 0})
	f.Add(uint16(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, runsRaw uint16, firstRaw, spanRaw uint8, raw []byte) {
		camp := &fault.Campaign{Runs: 1 + int(runsRaw)%4096}
		batches := camp.NumBatches()
		first := int(firstRaw) % batches
		last := first + 1 + int(spanRaw)%(batches-first)

		var reported []CampaignResult
		for i := 0; i+4 <= len(raw); i += 4 {
			n := camp.BatchRuns(min(first+len(reported), batches-1))
			c := CampaignResult{Total: n, Detected: int(raw[i]) % (n + 1)}
			c.Effective = int(raw[i+1]) % (n - c.Detected + 1)
			c.Ineffective = n - c.Detected - c.Effective
			delta := int(int8(raw[i+3]))
			switch raw[i+2] % 8 {
			case 0:
				c.Total += delta
			case 1:
				c.Ineffective += delta
			case 2:
				c.Detected += delta
			case 3:
				c.Effective += delta
			case 4:
				c.Corrected += delta
			case 5:
				moved := int(raw[i+3]) % (c.Ineffective + 1)
				c.Ineffective, c.Corrected = c.Ineffective-moved, moved
			}
			reported = append(reported, c)
		}

		want := len(reported) == last-first
		var sum CampaignResult
		for i, c := range reported {
			sum.Accumulate(c)
			if want {
				n := camp.BatchRuns(first + i)
				want = c.Total == n && c.Ineffective >= 0 && c.Detected >= 0 && c.Effective >= 0 && c.Corrected >= 0 &&
					c.Ineffective+c.Detected+c.Effective+c.Corrected == n
			}
		}
		got, err := checkCompletion(camp, first, last, reported)
		if (err == nil) != want {
			t.Fatalf("range [%d,%d) of %d runs, tallies %+v: check error %v, want accepted=%v",
				first, last, camp.Runs, reported, err, want)
		}
		if err == nil && got != sum {
			t.Fatalf("accepted report merged to %+v, want the sum of its tallies %+v", got, sum)
		}
	})
}

// FuzzStateDirRecovery opens a service over arbitrary bytes as its state
// log. Whatever they are, New must succeed — damage costs what was logged
// after it, never the daemon — and the service must list its jobs and
// close. The seeds are a real log of a drained campaign and a drained sweep
// (batch, run and job records), cuts of it, and garbage.
func FuzzStateDirRecovery(f *testing.F) {
	dir := f.TempDir()
	drainMidRun(f, Config{Workers: 2, SimWorkers: 1, CheckpointEveryRuns: 64, StateDir: dir}, tornJobs()...)
	log, frames := readLog(f, dir)
	f.Add(log)
	for _, fr := range frames[len(frames)/2:] {
		f.Add(log[:fr.off+(fr.end-fr.off)/2])
	}
	f.Add(log[:len(log)-1])
	f.Add([]byte("not a log at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "results.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Workers: 1, SimWorkers: 1, StateDir: dir})
		if err != nil {
			t.Fatalf("New on an arbitrary state log: %v", err)
		}
		for _, st := range s.List() {
			if st.ID == "" {
				t.Errorf("listed a job without an ID: %+v", st)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
