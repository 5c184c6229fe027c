// Package store is the embedded, dependency-free durable log behind sconed's
// state dir. It persists three record kinds in one append-only log:
//
//   - batch records: the outcome tally of one completed campaign batch,
//     keyed by content address — (netlist digest, engine version, cipher
//     key, seed, resolved faults, batch index, runs in batch). Because
//     campaign batch b derives all randomness from (seed, b), a stored
//     batch is exactly the batch any future submission of the same
//     campaign would simulate, so lookups can replace simulation without
//     changing a single bit of the merged result.
//
//   - run records: one JSON document per campaign submission carrying full
//     provenance (request, digests, timestamps, replay/simulation split,
//     final counts). The last record per ID wins on reload, so a run is
//     updated by appending.
//
//   - job records: the service's job state — lifecycle changes and
//     checkpoint deltas — as opaque JSON the service owns and folds itself
//     (Jobs).
//
// Crash safety follows the CRC-framed incremental database idiom: every
// record is length-prefixed and CRC32-checked, writes are append-only, and
// Open truncates the log at the first bad frame. What survives is therefore
// always a prefix of what was written: a record that survives keeps every
// record appended before it, so a surviving job commit keeps the batches it
// counts. A torn tail or corrupted region costs the damaged record and all
// that follows — lost batches are re-simulated, lost run records are gone,
// and a job resumes from its last surviving commit (one whose every record
// was cut is gone) — and Open reports the bytes it dropped (RecoveredBytes,
// scone_store_recovered_bytes).
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// Record framing: one type byte, little-endian payload length, little-endian
// CRC32 (IEEE) of the payload, then the payload itself.
const (
	recBatch = 'B'
	recRun   = 'R'
	recJob   = 'J'

	frameHeaderLen = 1 + 4 + 4

	// maxPayload bounds a frame so a corrupt length can neither drive a
	// huge allocation nor skip the scanner past gigabytes of log.
	maxPayload = 8 << 20
)

// ErrTooLarge is returned for a record whose payload exceeds the 8 MiB frame
// cap; nothing is written.
var ErrTooLarge = errors.New("store: record exceeds the 8 MiB frame cap")

// Store is a content-addressed campaign result store backed by one
// append-only log file. All methods are safe for concurrent use, and every
// method is a no-op (miss, empty) on a nil receiver, so a service without a
// state dir runs storeless through the same code path.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64 // append offset == bytes of valid log

	batches  map[BatchKey]Counts
	runs     map[string]RunRecord
	runOrder []string
	jobs     [][]byte // job records replayed by Open, until Jobs hands them over

	recovered int64 // bytes truncated by corruption recovery at Open

	hits    *obs.Counter
	misses  *obs.Counter
	puts    *obs.Counter
	putErrs *obs.Counter
}

// Open loads (or creates) the log at path, replaying every valid record into
// the in-memory index. On encountering a corrupt or torn frame it truncates
// the file there and keeps everything before it: recovery can lose cache
// entries, never the store.
func Open(path string) (*Store, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		f:       f,
		path:    path,
		batches: make(map[BatchKey]Counts),
		runs:    make(map[string]RunRecord),
	}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the log from the start, indexing valid records and truncating
// at the first bad frame.
func (s *Store) replay() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	total := fi.Size()
	var off int64
	hdr := make([]byte, frameHeaderLen)
	var payload []byte
	for off < total {
		good := s.scanRecord(off, total, hdr, &payload)
		if !good {
			break
		}
		off += frameHeaderLen + int64(binary.LittleEndian.Uint32(hdr[1:5]))
	}
	if off < total {
		s.recovered = total - off
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate corrupt tail: %w", err)
		}
	}
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size = off
	return nil
}

// scanRecord validates and indexes the frame at off. It reports false on any
// malformation — short header, oversized or truncated payload, CRC mismatch,
// undecodable payload, unknown record type — which replay treats uniformly
// as the end of the valid log.
func (s *Store) scanRecord(off, total int64, hdr []byte, payload *[]byte) bool {
	if total-off < frameHeaderLen {
		return false
	}
	if _, err := s.f.ReadAt(hdr, off); err != nil {
		return false
	}
	typ := hdr[0]
	if typ != recBatch && typ != recRun && typ != recJob {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[1:5]))
	if n > maxPayload || total-off-frameHeaderLen < n {
		return false
	}
	if int64(cap(*payload)) < n {
		*payload = make([]byte, n)
	}
	p := (*payload)[:n]
	if _, err := s.f.ReadAt(p, off+frameHeaderLen); err != nil {
		return false
	}
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(hdr[5:9]) {
		return false
	}
	switch typ {
	case recBatch:
		k, c, err := decodeBatch(p)
		if err != nil {
			return false
		}
		s.batches[k] = c
	case recRun:
		var rec RunRecord
		if err := json.Unmarshal(p, &rec); err != nil || rec.ID == "" {
			return false
		}
		if _, seen := s.runs[rec.ID]; !seen {
			s.runOrder = append(s.runOrder, rec.ID)
		}
		s.runs[rec.ID] = rec
	case recJob:
		s.jobs = append(s.jobs, append([]byte(nil), p...))
	}
	return true
}

// append frames and writes one record. Callers hold s.mu.
func (s *Store) append(typ byte, payload []byte) error {
	if s.f == nil {
		return fmt.Errorf("store: closed")
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("%w (%d bytes)", ErrTooLarge, len(payload))
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[5:9], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderLen:], payload)
	n, err := s.f.WriteAt(buf, s.size)
	if err != nil {
		// A partial frame is exactly what replay recovers from; leave the
		// append offset where it was so a retry overwrites the torn tail.
		return fmt.Errorf("store: append: %w", err)
	}
	s.size += int64(n)
	return nil
}

// EnableObservability registers the store's instruments on reg. Call once,
// right after Open; a nil registry (or never calling this) leaves the
// instruments as free no-ops.
func (s *Store) EnableObservability(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.hits = reg.NewCounter("scone_store_hits_total", "Campaign batches served from the result store instead of simulating")
	s.misses = reg.NewCounter("scone_store_misses_total", "Batch lookups that found no stored result")
	s.puts = reg.NewCounter("scone_store_batch_puts_total", "Batch results appended to the log")
	s.putErrs = reg.NewCounter("scone_store_put_errors_total", "Failed or conflicting store appends")
	reg.NewGaugeFunc("scone_store_batches_count", "Distinct batch results indexed", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.batches))
	})
	reg.NewGaugeFunc("scone_store_runs_count", "Campaign run records indexed", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.runs))
	})
	reg.NewGaugeFunc("scone_store_log_bytes", "Bytes of valid result log on disk", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.size
	})
	reg.NewGaugeFunc("scone_store_recovered_bytes", "Corrupt log bytes truncated at the last Open", func() int64 {
		return s.recovered
	})
}

// GetBatch looks one batch up, counting a hit or miss.
func (s *Store) GetBatch(k BatchKey) (Counts, bool) {
	if s == nil {
		return Counts{}, false
	}
	s.mu.Lock()
	c, ok := s.batches[k]
	s.mu.Unlock()
	if ok {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
	return c, ok
}

// PeekBatch is GetBatch without the hit/miss instruments: read-only query
// surfaces (POST /v1/results) use it, so the cache metrics keep measuring
// only the replay decision inside job execution.
func (s *Store) PeekBatch(k BatchKey) (Counts, bool) {
	if s == nil {
		return Counts{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.batches[k]
	return c, ok
}

// PutBatch stores one completed batch. Storing an already-present key with
// equal counts is a free no-op (concurrent executions of the same campaign
// legitimately race here); unequal counts mean the determinism contract was
// broken somewhere, so the existing record is kept and an error returned.
func (s *Store) PutBatch(k BatchKey, c Counts) error {
	if s == nil {
		return nil
	}
	if c.Total != k.Runs || c.Total != c.Ineffective+c.Detected+c.Effective+c.Corrected {
		s.putErrs.Inc()
		return fmt.Errorf("store: inconsistent counts for batch %d", k.Batch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.batches[k]; ok {
		if prev == c {
			return nil
		}
		s.putErrs.Inc()
		return fmt.Errorf("store: batch %d of %s already stored with different counts (determinism violation?)",
			k.Batch, k.Campaign)
	}
	if err := s.append(recBatch, encodeBatch(k, c)); err != nil {
		s.putErrs.Inc()
		return err
	}
	s.batches[k] = c
	s.puts.Inc()
	return nil
}

// PutRun appends (or, for an existing ID, supersedes) one run record.
func (s *Store) PutRun(rec RunRecord) error {
	if s == nil {
		return nil
	}
	if rec.ID == "" {
		s.putErrs.Inc()
		return fmt.Errorf("store: run record needs an ID")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.putErrs.Inc()
		return fmt.Errorf("store: run record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(recRun, payload); err != nil {
		s.putErrs.Inc()
		return err
	}
	if _, seen := s.runs[rec.ID]; !seen {
		s.runOrder = append(s.runOrder, rec.ID)
	}
	s.runs[rec.ID] = rec
	return nil
}

// PutJob appends one job record. The payload is the service's; the store
// only frames it.
func (s *Store) PutJob(payload []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(recJob, payload); err != nil {
		s.putErrs.Inc()
		return err
	}
	return nil
}

// Jobs hands over the job records Open replayed, in log order, and drops the
// store's copy: the service folds them once, at startup.
func (s *Store) Jobs() [][]byte {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.jobs
	s.jobs = nil
	return recs
}

// Run returns one run record by ID.
func (s *Store) Run(id string) (RunRecord, bool) {
	if s == nil {
		return RunRecord{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.runs[id]
	return rec, ok
}

// Runs returns every run record in first-seen order.
func (s *Store) Runs() []RunRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunRecord, 0, len(s.runOrder))
	for _, id := range s.runOrder {
		out = append(out, s.runs[id])
	}
	return out
}

// BatchCount reports the number of distinct batch results indexed.
func (s *Store) BatchCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

// RecoveredBytes reports how many corrupt tail bytes the last Open dropped.
func (s *Store) RecoveredBytes() int64 {
	if s == nil {
		return 0
	}
	return s.recovered
}

// Sync flushes the log to stable storage. The service calls this at its
// checkpoint cadence: CRC framing already guarantees consistency across
// crashes, Sync only upgrades recent appends from "likely" to "durable".
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Close syncs and closes the log. Further use returns errors.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
