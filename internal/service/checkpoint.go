package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
// are deterministic per (location, model) pair and the service walks the
// pairs in a fixed order (locations outer, models inner), so the completed
// prefix — the pairs in Done — plus the next pair index is sufficient to
// resume without re-proving anything.
type ProveCheckpoint struct {
	NextPair int             `json:"next_pair"`
	Done     []ProveLocation `json:"done"`
}

// MultiFaultCheckpoint is the durable mid-flight state of a multifault job.
// The plan's placement enumeration is deterministic and pruning is an
// execution-time skip (never a renumbering), so the completed placements in
// Done plus the next plan index resume the sweep exactly: every placement
// campaign is itself seed-deterministic, and a placement interrupted
// mid-campaign simply re-executes from its cached batches.
type MultiFaultCheckpoint struct {
	NextTuple int           `json:"next_tuple"`
	Done      []TupleResult `json:"done"`
}

// LeakageCheckpoint is the durable mid-flight state of a leakage job.
// Trace batch b draws all randomness from (seed, b), so the next batch
// index plus the streaming t-test accumulator (whose float64 fields
// round-trip JSON bit-exactly) resume the evaluation bit-identically —
// the resumed job simulates exactly the remaining batches.
type LeakageCheckpoint struct {
	NextBatch int              `json:"next_batch"`
	Discarded int              `json:"discarded"`
	TTest     stats.TTestState `json:"ttest"`
}

// jobRecord is the on-disk form of a job: its status as GET /v1/jobs/{id}
// shows it, the full request (jobs are defined by their requests — the
// determinism contract) and, for the checkpointing kinds, the latest
// checkpoint. Older records, which stored only part of the status, decode
// unchanged: their keys are a subset of these.
type jobRecord struct {
	JobStatus
	Req        JobRequest  `json:"request"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// jobStore persists job records under dir/jobs/<id>.json. A nil jobStore (no
// state dir configured) turns every operation into a no-op: the service
// then runs purely in memory.
type jobStore struct {
	dir string
}

func openJobStore(dir string) (*jobStore, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	return &jobStore{dir: dir}, nil
}

func (st *jobStore) path(id string) string {
	return filepath.Join(st.dir, "jobs", id+".json")
}

// save writes atomically (temp file + rename) so a kill mid-write can never
// corrupt a record: the previous checkpoint stays intact.
func (st *jobStore) save(rec *jobRecord) error {
	if st == nil {
		return nil
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp := st.path(rec.ID) + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, st.path(rec.ID))
}

// loadAll returns every persisted record sorted by ID (IDs are zero-padded
// sequence numbers, so this is submission order).
func (st *jobStore) loadAll() ([]*jobRecord, error) {
	if st == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var recs []*jobRecord
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(st.dir, "jobs", name))
		if err != nil {
			return nil, err
		}
		var rec jobRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("service: corrupt job record %s: %w", name, err)
		}
		recs = append(recs, &rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}
