package service

import (
	"errors"
	"slices"
)

// ErrQueueFull is returned by Submit when the backlog is at
// Config.QueueDepth; HTTP maps it to 429 so load-shedding is visible to
// clients.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit once a graceful shutdown has begun.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// The job queue is one FIFO of queued-but-not-started jobs
// (Service.pending, guarded by Service.mu) served by every worker
// goroutine: the oldest queued job starts on whichever worker frees up
// first, and a cancelled job leaves the queue at once, so it holds no
// backlog slot.

// enqueueLocked appends j to the queue and wakes one idle worker. Callers
// hold s.mu and have checked capacity where it applies.
func (s *Service) enqueueLocked(j *job) {
	s.pending = append(s.pending, j)
	s.wake.Signal()
}

// dequeueLocked removes a queued job that will not run. Callers hold s.mu.
func (s *Service) dequeueLocked(j *job) {
	if i := slices.Index(s.pending, j); i >= 0 {
		s.pending = slices.Delete(s.pending, i, i+1)
	}
}

// next blocks until a job is queued and pops the oldest one; it returns
// nil once the service is draining.
func (s *Service) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 && !s.draining {
		s.wake.Wait()
	}
	if s.draining {
		return nil
	}
	j := s.pending[0]
	s.pending = s.pending[1:]
	return j
}

// QueueLen reports the queued backlog (for /metrics and tests).
func (s *Service) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}
