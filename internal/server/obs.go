package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/obs"
)

// endpoint identifies one instrumented route for per-endpoint counters
// and latency histograms. A warm select (served from the version-keyed
// response cache) is its own endpoint: it is two orders of magnitude
// cheaper than a miss, and folding both into one histogram would bury
// the miss tail under the warm flood.
type endpoint uint8

const (
	epJER endpoint = iota
	epSelectMiss
	epSelectWarm
	epSelectBatch
	epPoolList
	epPoolGet
	epPoolPut
	epPoolPatch
	epPoolDelete
	epTaskCreate
	epTaskList
	epTaskGet
	epTaskVote
	epTaskVoteBatch
	epInsightJurors
	epInsightCalibration
	epInsightAgreement
	epTaskTimeline
	epLifecycle
	epSLO

	// Ops endpoints form their own group at the end of the enum: they
	// are instrumented like any other route, but the http_5xx SLI
	// excludes them (a 503 from a draining /healthz is the probe doing
	// its job, not an availability failure). epOpsFirst marks the
	// boundary the SLI poll tests against.
	epOpsHealthz
	epOpsMetrics
	epOpsMetricsProm
	epOpsDebugTraces

	numEndpoints

	epOpsFirst = epOpsHealthz
)

var endpointNames = [numEndpoints]string{
	"jer", "select_miss", "select_warm", "select_batch",
	"pool_list", "pool_get", "pool_put", "pool_patch", "pool_delete",
	"task_create", "task_list", "task_get", "task_vote", "task_vote_batch",
	"insight_jurors", "insight_calibration", "insight_agreement",
	"task_timeline", "lifecycle", "slo",
	"ops_healthz", "ops_metrics", "ops_metrics_prom", "ops_debug_traces",
}

// ops reports whether the endpoint belongs to the operational group
// (health probes, scrapes, trace dumps).
func (e endpoint) ops() bool { return e >= epOpsFirst && e < numEndpoints }

func (e endpoint) String() string {
	if int(e) < len(endpointNames) {
		return endpointNames[e]
	}
	return "unknown"
}

// endpointMetrics is one endpoint's always-on observability: request and
// error counts plus the full latency distribution. Everything is
// atomics — scrapes never contend with the serving path.
type endpointMetrics struct {
	requests  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
	lat       obs.Histogram
}

// reqWriter wraps the ResponseWriter for one instrumented request: it
// captures the response status, books the endpoint counters when the
// response is committed, and carries the request's span recorder.
// Writers are pooled and every field is either reset or overwritten per
// request, so the instrumented path allocates nothing.
type reqWriter struct {
	http.ResponseWriter
	srv       *Server
	tr        obs.Trace
	last      time.Time // previous stage mark; spans are contiguous segments
	ep        endpoint
	status    int
	committed bool
	sampled   bool // chosen by 1-in-N sampling for the trace ring
}

var reqWriterPool = sync.Pool{New: func() any {
	return &reqWriter{tr: obs.Trace{Spans: make([]obs.Span, 0, obs.MaxSpans)}}
}}

func (rw *reqWriter) WriteHeader(code int) {
	if !rw.committed {
		rw.status = code
		rw.commit()
	}
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *reqWriter) Write(b []byte) (int, error) {
	if !rw.committed {
		rw.commit()
	}
	return rw.ResponseWriter.Write(b)
}

// commit books the request under its endpoint — the request count and
// its 4xx/5xx class — as the response is committed: after any
// reclassification (setEndpoint) and before the client can read a byte
// of the response, so a client never misses its own finished request in
// a later scrape, and a count never moves between endpoints. The class
// is booked before the request count; PollSLO relies on that order.
func (rw *reqWriter) commit() {
	rw.committed = true
	s := rw.srv
	em := &s.eps[rw.ep]
	switch {
	case rw.status >= 500:
		em.errors5xx.Add(1)
		s.m.errors.Add(1)
	case rw.status == http.StatusTooManyRequests:
		// Shed is its own counter, incremented where the shed decision is
		// made (admit); counting it again here as a client error would
		// repeat the double-count this split removes.
	case rw.status >= 400:
		em.errors4xx.Add(1)
	}
	em.requests.Add(1)
}

// instrument wraps a handler with the request counter, the per-endpoint
// latency histogram, stage recording, and trace capture. The wrapped
// handler sees a *reqWriter; stage marks reach it via the mark helper.
func (s *Server) instrument(ep endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Add(1)
		rw := reqWriterPool.Get().(*reqWriter)
		rw.ResponseWriter = w
		rw.srv = s
		rw.ep = ep
		rw.status = http.StatusOK
		rw.committed = false
		rw.tr.Reset()
		now := time.Now()
		rw.tr.Start = now
		rw.last = now
		rw.sampled = s.traceEvery > 0 && s.traceSeq.Add(1)%int64(s.traceEvery) == 0
		h(rw, r)
		rw.finish()
		rw.ResponseWriter = nil
		rw.srv = nil
		reqWriterPool.Put(rw)
	}
}

// finish runs when the handler returns: it books a request that never
// wrote (an implicit empty 200), records the latency, and folds the
// request into the stage histograms and, when sampled or slow, into the
// trace ring.
func (rw *reqWriter) finish() {
	if !rw.committed {
		rw.commit()
	}
	s := rw.srv
	durNS := time.Since(rw.tr.Start).Nanoseconds()
	s.eps[rw.ep].lat.Observe(durNS)
	for _, sp := range rw.tr.Spans {
		s.stages[sp.Stage].Observe(sp.DurNS)
	}
	slow := s.slowNS > 0 && durNS >= s.slowNS
	if !rw.sampled && !slow {
		return
	}
	rw.tr.ID = s.traceTotal.Add(1)
	rw.tr.Endpoint = endpointNames[rw.ep]
	rw.tr.Status = rw.status
	rw.tr.DurNS = durNS
	s.ring.Capture(&rw.tr)
	if slow && s.logger != nil {
		s.logger.Warn("slow request",
			"endpoint", endpointNames[rw.ep],
			"status", rw.status,
			"dur_ms", durNS/1e6,
			"trace_id", rw.tr.ID,
		)
	}
}

// mark records a stage segment: the time since the previous mark (or
// the request start) is attributed to st. A no-op for un-instrumented
// writers (benchmark harnesses calling handlers directly).
func mark(w http.ResponseWriter, st obs.Stage) {
	rw, ok := w.(*reqWriter)
	if !ok {
		return
	}
	now := time.Now()
	rw.tr.Add(st, now.Sub(rw.last).Nanoseconds())
	rw.last = now
}

// setEndpoint reclassifies the request mid-flight — a select that hit
// the response cache books under select_warm, not select_miss. Once the
// response is committed the request is booked and keeps its endpoint.
func setEndpoint(w http.ResponseWriter, ep endpoint) {
	if rw, ok := w.(*reqWriter); ok && !rw.committed {
		rw.ep = ep
	}
}

// setTraceTask tags the request's trace with the decision task it
// touched, so /debug/traces?task_id= follows one verdict end to end.
func setTraceTask(w http.ResponseWriter, id string) {
	if rw, ok := w.(*reqWriter); ok {
		rw.tr.TaskID = id
	}
}

// traceCtx threads the request's trace into the context for layers that
// record spans without seeing the writer (the task store's durability
// wait). Only traced requests pay the context allocation: when tracing
// is fully disabled (no sampling, no slow-log), the ctx passes through
// untouched and the request path stays allocation-free.
func (s *Server) traceCtx(ctx context.Context, w http.ResponseWriter) context.Context {
	rw, ok := w.(*reqWriter)
	if !ok || !(rw.sampled || s.slowNS > 0) {
		return ctx
	}
	return obs.ContextWithTrace(ctx, &rw.tr)
}

// debugTracesResponse is the body of GET /debug/traces.
type debugTracesResponse struct {
	// Total counts traces captured since start (captures, not residents).
	Total  int64       `json:"total"`
	Traces []obs.Trace `json:"traces"`
}

// handleDebugTraces serves GET /debug/traces: recently captured request
// traces, newest first. Query parameters: endpoint=NAME keeps one
// endpoint, task_id=ID keeps one decision task's lifecycle requests,
// min_ms=N keeps requests at least that slow, limit=N caps the result
// (default 32).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 32
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.fail(w, badRequest("limit must be a positive integer, got %q", v))
			return
		}
		limit = n
	}
	var minNS int64
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			s.fail(w, badRequest("min_ms must be a non-negative integer, got %q", v))
			return
		}
		minNS = ms * 1e6
	}
	ep := q.Get("endpoint")
	taskID := q.Get("task_id")
	var filter func(*obs.Trace) bool
	if ep != "" || taskID != "" || minNS > 0 {
		filter = func(t *obs.Trace) bool {
			return (ep == "" || t.Endpoint == ep) &&
				(taskID == "" || t.TaskID == taskID) &&
				t.DurNS >= minNS
		}
	}
	writeJSON(w, http.StatusOK, debugTracesResponse{
		Total:  s.ring.Total(),
		Traces: s.ring.Snapshot(filter, limit),
	})
}

// slogLogger resolves the configured logger, defaulting to the process
// slog logger so slow-request warnings are never silently dropped.
func slogLogger(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return slog.Default()
}
