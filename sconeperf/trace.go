package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// Span is one recorded interval, in the JSON form -trace-out writes. Spans
// of one op share its trace id ("op<index>"); Parent is 0 for a trace's
// roots. A point event (a batch completing) has Start == End.
type Span struct {
	Trace  string         `json:"trace"`
	Span   int64          `json:"span"`
	Parent int64          `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// fleetTrace holds server spans no op caused: worker joins, heartbeats and
// lease polls that found no work.
const fleetTrace = "fleet"

// Headers the traced client transport uses to hand the op's trace and the
// calling span to the server middleware.
const (
	traceHeader  = "X-Sconeperf-Trace"
	parentHeader = "X-Sconeperf-Parent"
)

// recorder keeps spans in memory until the run ends. Every method is a
// no-op on a nil recorder, so untraced runs execute the same code path.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
	// Lease spans learn their job from the lease grant and their trace
	// from the job's submission; both maps are resolved when spans are
	// read, because a worker can be granted a lease before the submit
	// response that names the job has been recorded.
	jobTrace map[string]string
	leaseJob map[string]string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), jobTrace: map[string]string{}, leaseJob: map[string]string{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

type spanCtxKey struct{}

type spanRef struct {
	trace string
	id    int64
}

// openSpan is a started span; end records it.
type openSpan struct {
	r   *recorder
	s   Span
	ctx context.Context
}

// root starts an op's root span in a fresh trace.
func (r *recorder) root(ctx context.Context, trace, name string) *openSpan {
	return r.begin(context.WithValue(ctx, spanCtxKey{}, spanRef{trace: trace}), name)
}

// begin starts a child of the span carried by ctx.
func (r *recorder) begin(ctx context.Context, name string) *openSpan {
	if r == nil {
		return &openSpan{ctx: ctx}
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	s := Span{Trace: parent.trace, Span: id, Parent: parent.id, Name: name, Start: r.now()}
	return &openSpan{r: r, s: s, ctx: context.WithValue(ctx, spanCtxKey{}, spanRef{trace: parent.trace, id: id})}
}

// context returns ctx carrying this span as the parent of later spans.
func (o *openSpan) context() context.Context { return o.ctx }

// event records a point event under this span.
func (o *openSpan) event(name string, attrs map[string]any) {
	if o.r == nil {
		return
	}
	t := o.r.now()
	o.r.add(Span{Trace: o.s.Trace, Parent: o.s.Span, Name: name, Start: t, End: t, Attrs: attrs})
}

// end records the span with optional attributes.
func (o *openSpan) end(attrs map[string]any) {
	if o.r == nil {
		return
	}
	o.s.End = o.r.now()
	o.s.Attrs = attrs
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

func (r *recorder) add(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Span == 0 {
		r.next++
		s.Span = r.next
	}
	r.spans = append(r.spans, s)
}

// Spans returns every recorded span, lease spans resolved into their job's
// trace, ordered by start time.
func (r *recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	for i := range out {
		s := &out[i]
		if s.Trace != "" {
			continue
		}
		job, _ := s.Attrs["job"].(string)
		if job == "" {
			job = r.leaseJob[attrString(s.Attrs, "lease")]
		}
		if t, ok := r.jobTrace[job]; ok {
			s.Trace = t
		} else {
			s.Trace = fleetTrace
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// count is the number of spans recorded so far.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func attrString(attrs map[string]any, k string) string {
	v, _ := attrs[k].(string)
	return v
}

// writeFile writes the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// transport tags outgoing requests with the calling span, so the server
// middleware can parent its route spans and join them to the op's trace.
type transport struct{ base http.RoundTripper }

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanCtxKey{}).(spanRef); ok && ref.trace != "" {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, ref.trace)
		req.Header.Set(parentHeader, strconv.FormatInt(ref.id, 10))
	}
	return t.base.RoundTrip(req)
}

// httpClient returns the client the benchmark's callers use: the default
// client when untraced, and the tagging transport over the same default
// connection pool when traced.
func (r *recorder) httpClient() *http.Client {
	if r == nil {
		return nil
	}
	return &http.Client{Transport: transport{base: http.DefaultTransport}}
}

// captureWriter notes when the handler last started writing — the latest
// moment that still precedes the client receiving the response — and keeps
// the body of small JSON responses the middleware needs to read ids from.
type captureWriter struct {
	http.ResponseWriter
	r         *recorder
	status    int
	lastWrite int64
	keep      bool
	body      bytes.Buffer
}

func (w *captureWriter) WriteHeader(code int) {
	w.status = code
	w.lastWrite = w.r.now()
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.lastWrite = w.r.now()
	if w.keep && w.body.Len() < 1<<16 {
		w.body.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

func (w *captureWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware records one span per /v1 request, named by its route. Job
// routes join the trace named by the caller's headers; lease routes are
// tagged with the lease and job ids so they resolve into the job's trace.
// The span ends when the handler last started writing, which keeps every
// server span inside the client span that waited for it.
func (r *recorder) middleware(next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route, id := routeOf(req.Method, req.URL.Path)
		s := Span{Name: route, Start: r.now(), Attrs: map[string]any{}}
		if t := req.Header.Get(traceHeader); t != "" {
			s.Trace = t
			s.Parent, _ = strconv.ParseInt(req.Header.Get(parentHeader), 10, 64)
		}
		var reqBody []byte
		if strings.HasPrefix(route, "POST /v1/leases/") {
			// A failed read hands the handler a truncated body to reject.
			reqBody, _ = io.ReadAll(req.Body)
			req.Body = io.NopCloser(bytes.NewReader(reqBody))
		}
		cw := &captureWriter{ResponseWriter: w, r: r,
			keep: route == "POST /v1/jobs" || route == "POST /v1/leases/acquire"}
		next.ServeHTTP(cw, req)
		s.End = cw.lastWrite
		if s.End < s.Start {
			s.End = r.now()
		}
		s.Attrs["status"] = cw.status
		switch {
		case route == "POST /v1/jobs":
			var st service.JobStatus
			if json.Unmarshal(cw.body.Bytes(), &st) == nil && st.ID != "" {
				s.Attrs["job"] = st.ID
			}
		case route == "POST /v1/leases/acquire":
			var g service.LeaseGrant
			if cw.status == http.StatusOK && json.Unmarshal(cw.body.Bytes(), &g) == nil {
				s.Attrs["lease"] = g.LeaseID
				s.Attrs["job"] = g.JobID
			}
			var a service.AcquireRequest
			if json.Unmarshal(reqBody, &a) == nil {
				s.Attrs["worker"] = a.WorkerID
			}
		case strings.HasPrefix(route, "POST /v1/leases/"):
			s.Attrs["lease"] = id
			var rep service.LeaseReport
			if json.Unmarshal(reqBody, &rep) == nil {
				s.Attrs["worker"] = rep.WorkerID
			}
		case strings.Contains(route, " /v1/jobs/{id}"):
			s.Attrs["job"] = id
		}
		r.mu.Lock()
		if job := attrString(s.Attrs, "job"); job != "" && s.Trace != "" {
			r.jobTrace[job] = s.Trace
		}
		if lease := attrString(s.Attrs, "lease"); lease != "" {
			if job := attrString(s.Attrs, "job"); job != "" {
				r.leaseJob[lease] = job
			}
		}
		r.mu.Unlock()
		r.add(s)
	})
}

// routeOf names a /v1 request by its route pattern and extracts the path's
// job, lease or worker id.
func routeOf(method, path string) (route, id string) {
	seg := strings.Split(strings.Trim(path, "/"), "/")
	if len(seg) >= 3 && seg[0] == "v1" && seg[2] != "acquire" && seg[2] != "join" {
		switch seg[1] {
		case "jobs", "leases", "workers", "runs":
			id = seg[2]
			seg[2] = "{id}"
		}
	}
	return method + " /" + strings.Join(seg, "/"), id
}
