package service

// HTTP surface of the distributed campaign fabric (coordinator role). The
// listing endpoints answer on every service — an empty registry on a
// single-node daemon — so dashboards need no mode probe; the mutating
// worker-protocol endpoints reject with invalid_request unless Config.Dist
// enabled the fabric.

import (
	"errors"
	"net/http"
)

// maxDistRequestBytes bounds worker-protocol payloads; a lease report
// carries one short tally per batch of its range.
const maxDistRequestBytes = 1 << 20

var errDistDisabled = errors.New("distributed fabric disabled (coordinator started without -dist)")

func (s *Service) registerDist(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"workers": s.Workers()})
	})
	mux.HandleFunc("GET /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"leases": s.Leases()})
	})
	mux.HandleFunc("POST /v1/workers/join", s.handleWorkerJoin)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("POST /v1/workers/{id}/leave", s.handleWorkerLeave)
	mux.HandleFunc("POST /v1/leases/acquire", s.handleLeaseAcquire)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.leaseReportHandler((*coordinator).complete))
	mux.HandleFunc("POST /v1/leases/{id}/fail", s.leaseReportHandler((*coordinator).fail))
}

// Workers lists the coordinator's worker registry (empty on a single-node
// service).
func (s *Service) Workers() []WorkerInfo { return s.dist.workersInfo() }

// Leases lists the coordinator's live lease table (empty on a single-node
// service).
func (s *Service) Leases() []LeaseInfo { return s.dist.leasesInfo() }

func (s *Service) handleWorkerJoin(w http.ResponseWriter, r *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, errDistDisabled)
		return
	}
	var req JoinRequest
	if err := decodeRequest(r, maxDistRequestBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	writeStatus(w, http.StatusOK, s.dist.join(req))
}

func (s *Service) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, errDistDisabled)
		return
	}
	var req HeartbeatRequest
	if err := decodeRequest(r, maxDistRequestBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	resp, err := s.dist.heartbeat(r.PathValue("id"), req)
	if err != nil {
		status, code := errorStatus(err)
		writeError(w, status, code, err)
		return
	}
	writeStatus(w, http.StatusOK, resp)
}

func (s *Service) handleWorkerLeave(w http.ResponseWriter, r *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, errDistDisabled)
		return
	}
	if err := s.dist.leave(r.PathValue("id")); err != nil {
		status, code := errorStatus(err)
		writeError(w, status, code, err)
		return
	}
	writeStatus(w, http.StatusOK, map[string]string{"status": "left"})
}

// handleLeaseAcquire grants a lease, or answers 204 when none is grantable
// (nothing pending, or every pending range behind its backoff gate) — the
// worker then sleeps for the advertised poll interval.
func (s *Service) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, errDistDisabled)
		return
	}
	var req AcquireRequest
	if err := decodeRequest(r, maxDistRequestBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	grant, err := s.dist.acquire(req.WorkerID)
	if err != nil {
		status, code := errorStatus(err)
		writeError(w, status, code, err)
		return
	}
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeStatus(w, http.StatusOK, grant)
}

// leaseReportHandler adapts one coordinator report method (complete, fail)
// to the wire; ownership violations surface as 409 conflict so a superseded
// worker knows to discard its work.
func (s *Service) leaseReportHandler(report func(*coordinator, string, LeaseReport) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.dist == nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errDistDisabled)
			return
		}
		var rep LeaseReport
		if err := decodeRequest(r, maxDistRequestBytes, &rep); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		if err := report(s.dist, r.PathValue("id"), rep); err != nil {
			status, code := errorStatus(err)
			writeError(w, status, code, err)
			return
		}
		writeStatus(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}
