package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// WriteJSON is the one encoder every scone surface shares — the daemon's
// responses and every sconectl JSON output (`sim -json` included) go
// through it, so their outputs are diff-able byte for byte.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Error codes of the /v1 typed error envelope. Every non-2xx v1 response
// is {"error":{"code","message"}} with one of these codes; the Go client
// maps them onto its sentinel errors, so callers branch on condition, not
// on status-code trivia.
const (
	CodeInvalidRequest = "invalid_request"
	CodeNotFound       = "not_found"
	CodeQueueFull      = "queue_full"
	CodeDraining       = "draining"
	CodeConflict       = "conflict"
)

// ErrorBody is the payload of the /v1 typed error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the full v1 error response shape.
type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError emits the typed envelope.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = WriteJSON(w, errorEnvelope{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// errorStatus maps a service error onto its wire status and code. Unknown
// errors are client mistakes (validation failures) rather than server
// faults: the service's own failure modes all have sentinels.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownLease):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, CodeQueueFull
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, ErrLeaseConflict):
		return http.StatusConflict, CodeConflict
	default:
		return http.StatusBadRequest, CodeInvalidRequest
	}
}

func writeStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = WriteJSON(w, v)
}

// maxRequestBytes bounds submissions; inline netlists are the largest
// legitimate payload and the PRESENT-80 cores are well under this.
const maxRequestBytes = 8 << 20

// Handler returns the service's HTTP API. The versioned surface is:
//
//	POST   /v1/jobs                   submit (JobRequest -> JobStatus, 202)
//	GET    /v1/jobs                   list
//	GET    /v1/jobs/{id}              status
//	DELETE /v1/jobs/{id}              cancel
//	POST   /v1/jobs/{id}/cancel      cancel (proxy-friendly alias)
//	GET    /v1/jobs/{id}/stream      NDJSON progress stream
//	POST   /v1/results               stored campaign results by content address (JobRequest -> ResultsView, zero simulation)
//	GET    /v1/runs                  stored campaign run records (provenance)
//	GET    /v1/runs/{id}             one stored run record
//	GET    /v1/healthz               liveness
//	GET    /v1/metrics               Prometheus text (JSON snapshot with Accept: application/json)
//	GET    /v1/workers               distributed-fabric worker registry
//	GET    /v1/leases                distributed-fabric lease table
//	POST   /v1/workers/join          worker registration
//	POST   /v1/workers/{id}/heartbeat lease renewal
//	POST   /v1/workers/{id}/leave    clean worker departure
//	POST   /v1/leases/acquire        pull a lease (204 when none)
//	POST   /v1/leases/{id}/complete  per-batch tallies of the whole range
//	POST   /v1/leases/{id}/fail      error report, lease requeued
//
// Errors use the typed envelope {"error":{"code","message"}}.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", jobRequestHandler(http.StatusAccepted, s.Submit))
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"jobs": s.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", idHandler(s.Get))
	mux.HandleFunc("DELETE /v1/jobs/{id}", idHandler(s.Cancel))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", idHandler(s.Cancel))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/results", jobRequestHandler(http.StatusOK, s.Results))
	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"runs": s.StoredRuns()})
	})
	mux.HandleFunc("GET /v1/runs/{id}", idHandler(s.StoredRun))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.registerDist(mux)
	return mux
}

// handleMetrics serves the full registry in Prometheus text exposition
// format. The JSON snapshot (short keys) remains available under Accept:
// application/json for sconectl and existing scrapers.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeStatus(w, http.StatusOK, s.Metrics.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.Metrics.WritePrometheus(w)
}

// decodeRequest reads a JSON request body of at most limit bytes into v,
// refusing unknown fields so a misspelled key is an error rather than a
// silent default. An empty body leaves v zero.
func decodeRequest(r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && err != io.EOF {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// jobRequestHandler adapts a service call on a JobRequest body — the
// submission schema, which POST /v1/jobs and POST /v1/results share — to
// the wire, answering success with the call's result.
func jobRequestHandler[T any](success int, call func(JobRequest) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := decodeRequest(r, maxRequestBytes, &req); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		out, err := call(req)
		if err != nil {
			status, code := errorStatus(err)
			writeError(w, status, code, err)
			return
		}
		writeStatus(w, success, out)
	}
}

// idHandler serves a lookup (or cancel) by the {id} path value; every
// error it can return names an unknown ID, so it answers 404.
func idHandler[T any](call func(id string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		out, err := call(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, CodeNotFound, err)
			return
		}
		writeStatus(w, http.StatusOK, out)
	}
}

// streamHandler serves the NDJSON progress feed: one status snapshot, then
// progress events as checkpoints land, then a final snapshot carrying the
// result. Each line is a complete Event and the connection closes after
// the terminal line, so `curl -N` and the client package can follow a job
// in real time.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, off, err := s.Watch(id)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	defer off()
	s.Metrics.StreamClients.Add(1)
	defer s.Metrics.StreamClients.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // NDJSON: one compact JSON object per line

	emit := func(ev Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	st, err := s.Get(id)
	if err != nil {
		return
	}
	if !emit(Event{Type: "status", Job: &st}) {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Terminal: the subscription closed; emit the final
				// snapshot (it may have raced past a dropped event).
				if st, err := s.Get(id); err == nil {
					emit(Event{Type: "result", Job: &st})
				}
				return
			}
			if ev.Type == "result" {
				emit(ev)
				return
			}
			if !emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
