package service

import (
	"encoding/json"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Checkpoint is the durable mid-flight state of a job: what its kind
// commits at a unit boundary and resumes from. A campaign job fills
// NextBatch and Counts — because campaign batch b draws all randomness from
// (seed, b), re-running batches [NextBatch, NumBatches) and adding the
// counts reproduces an uninterrupted run bit for bit. Prove, multifault and
// leakage jobs fill their own field instead; at most one shape is ever
// populated, and the one-shot kinds never checkpoint.
type Checkpoint struct {
	NextBatch  int                   `json:"next_batch"`
	Counts     CampaignResult        `json:"counts"`
	Prove      *ProveCheckpoint      `json:"prove,omitempty"`
	MultiFault *MultiFaultCheckpoint `json:"multifault,omitempty"`
	Leakage    *LeakageCheckpoint    `json:"leakage,omitempty"`
}

// ProveCheckpoint is the durable mid-flight state of a prove job. Proofs
// are deterministic per (location, model) pair and walked in a fixed order
// (locations outer, models inner), so the completed pairs plus the next
// pair index resume without re-proving anything. A commit logs only the
// pairs since the previous one; the startup fold rebuilds the whole list.
type ProveCheckpoint struct {
	NextPair int             `json:"next_pair"`
	Done     []ProveLocation `json:"done"`
}

// MultiFaultCheckpoint is the durable mid-flight state of a multifault job,
// logged and folded like ProveCheckpoint. The plan's enumeration is
// deterministic and pruning never renumbers, so the completed placements
// plus the next plan index resume the sweep exactly; a placement
// interrupted mid-campaign re-executes from its cached batches.
type MultiFaultCheckpoint struct {
	NextTuple int           `json:"next_tuple"`
	Done      []TupleResult `json:"done"`
}

// LeakageCheckpoint is the durable mid-flight state of a leakage job.
// Trace batch b draws all randomness from (seed, b), so the next batch
// index plus the t-test accumulator (its float64s round-trip JSON exactly)
// resume the evaluation bit-identically, simulating only what remains.
type LeakageCheckpoint struct {
	NextBatch int              `json:"next_batch"`
	Discarded int              `json:"discarded"`
	TTest     stats.TTestState `json:"ttest"`
}

// jobRecord is one record of the state log, or a legacy jobs/<id>.json file:
// the job's status, the request on its first record, and on commits the
// cursor plus the units since the previous commit (a legacy file has all).
type jobRecord struct {
	JobStatus
	Req        *JobRequest `json:"request,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// loadJobsLocked folds the state dir's job records — the legacy files, then
// the log in order — and requeues every unfinished job, whatever the queue
// bound. A record that does not decode or fit its job is skipped and
// counted, never fatal.
func (s *Service) loadJobsLocked(legacy [][]byte) {
	for _, b := range append(legacy, s.results.Jobs()...) {
		var rec jobRecord
		if json.Unmarshal(b, &rec) != nil || !s.foldLocked(&rec) {
			s.Metrics.JobRecordsSkipped.Inc()
		}
	}
	for _, id := range s.order {
		if j := s.jobs[id]; !j.State.Terminal() {
			j.State = StateQueued // an interrupted run resumes from its checkpoint
			s.enqueueLocked(j)
		}
	}
}

// foldLocked applies one record to its job: the status supersedes the
// job's, a request starts the job afresh, and a checkpoint's units fill
// positions [next − len(done), next) of the unit list, which a terminal
// result takes back. It reports false for no job or a gap in the units.
func (s *Service) foldLocked(rec *jobRecord) bool {
	j, seen := s.jobs[rec.ID]
	if rec.Req != nil {
		j = &job{req: *rec.Req, subs: make(map[int]chan Event)}
	}
	if j == nil || rec.ID == "" {
		return false
	}
	cp := j.checkpoint
	if in := rec.Checkpoint; in != nil {
		locs, tuples := cp.units()
		ok := true
		if p := in.Prove; p != nil {
			p.Done, ok = splice(locs, p.NextPair, p.Done)
		}
		if m := in.MultiFault; m != nil && ok {
			m.Done, ok = splice(tuples, m.NextTuple, m.Done)
		}
		if !ok {
			return false
		}
		cp = in
	}
	if r := rec.Result; r != nil {
		locs, tuples := cp.units()
		if r.Prove != nil && r.Prove.Locations == nil {
			r.Prove.Locations = locs
		}
		if r.MultiFault != nil && r.MultiFault.Tuples == nil {
			r.MultiFault.Tuples = tuples
		}
	}
	if !seen {
		s.order = append(s.order, rec.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	s.jobs[rec.ID], j.JobStatus, j.checkpoint = j, rec.JobStatus, cp
	j.Kind = j.req.Kind // older records carry no kind
	return true
}

// units returns a checkpoint's unit lists; nil-safe.
func (cp *Checkpoint) units() (locs []ProveLocation, tuples []TupleResult) {
	if cp != nil && cp.Prove != nil {
		locs = cp.Prove.Done
	}
	if cp != nil && cp.MultiFault != nil {
		tuples = cp.MultiFault.Done
	}
	return locs, tuples
}

func splice[T any](units []T, next int, done []T) ([]T, bool) {
	start := next - len(done)
	if start < 0 || start > len(units) {
		return nil, false
	}
	return append(units[:start], done...), true
}

// withoutUnits leaves out a terminal result's unit list: its commits have it.
func withoutUnits(r *JobResult) *JobResult {
	if r == nil || (r.MultiFault == nil && r.Prove == nil) {
		return r
	}
	c := *r
	if c.MultiFault != nil {
		m := *c.MultiFault
		m.Tuples, c.MultiFault = nil, &m
	}
	if c.Prove != nil {
		p := *c.Prove
		p.Locations, c.Prove = nil, &p
	}
	return &c
}
