package service

// HTTP surface of the lease table. The listing endpoints answer on every
// service — on a single-node daemon the worker registry is empty and the
// lease table holds its running campaigns' in-process claims — so
// dashboards need no mode probe; the worker-protocol endpoints reject with
// invalid_request unless Config.Dist enabled them.

import (
	"errors"
	"net/http"
)

// maxDistRequestBytes bounds worker-protocol payloads; a lease report
// carries one short tally per batch of its range.
const maxDistRequestBytes = 1 << 20

var errDistDisabled = errors.New("worker protocol disabled (daemon started without -dist)")

func (s *Service) registerDist(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"workers": s.Workers()})
	})
	mux.HandleFunc("GET /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"leases": s.Leases()})
	})
	mux.HandleFunc("POST /v1/workers/join", s.workerProtocol(s.handleWorkerJoin))
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.workerProtocol(s.handleWorkerHeartbeat))
	mux.HandleFunc("POST /v1/workers/{id}/leave", s.workerProtocol(s.handleWorkerLeave))
	mux.HandleFunc("POST /v1/leases/acquire", s.workerProtocol(s.handleLeaseAcquire))
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.workerProtocol(s.leaseReportHandler((*coordinator).complete)))
	mux.HandleFunc("POST /v1/leases/{id}/fail", s.workerProtocol(s.leaseReportHandler((*coordinator).fail)))
}

// workerProtocol gates a worker-protocol handler on Config.Dist.Enabled.
func (s *Service) workerProtocol(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.cfg.Dist.Enabled {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errDistDisabled)
			return
		}
		h(w, r)
	}
}

// Workers lists the worker registry; a service without Config.Dist has
// none.
func (s *Service) Workers() []WorkerInfo { return s.dist.workersInfo() }

// Leases lists the live lease table: every running campaign's leases,
// which a single-node service claims and runs in-process.
func (s *Service) Leases() []LeaseInfo { return s.dist.leasesInfo() }

func (s *Service) handleWorkerJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := decodeRequest(r, maxDistRequestBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	writeStatus(w, http.StatusOK, s.dist.join(req))
}

func (s *Service) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
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
	if err := s.dist.leave(r.PathValue("id")); err != nil {
		status, code := errorStatus(err)
		writeError(w, status, code, err)
		return
	}
	writeStatus(w, http.StatusOK, map[string]string{"status": "left"})
}

// handleLeaseAcquire parks until a lease is grantable and grants it, or
// answers 204 when none became grantable within one heartbeat interval
// (nothing pending, or every pending range behind its backoff gate) or the
// worker hung up — the worker then asks again at once. A drain answers
// every parked acquire with 503 draining.
func (s *Service) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	if err := decodeRequest(r, maxDistRequestBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	grant, err := s.dist.acquireWait(r.Context(), req.WorkerID)
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
