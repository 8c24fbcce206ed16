package server

import (
	"fmt"
	"net/http"
	"time"
)

// requireLifecycle guards the timeline endpoints: without a lifecycle
// engine they do not exist, mirroring requireTasks and requireInsight.
func (s *Server) requireLifecycle(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.lifecycle == nil {
			s.fail(w, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("%s: lifecycle engine not configured", r.URL.Path)})
			return
		}
		h(w, r)
	}
}

// requireSLO guards GET /v1/slo.
func (s *Server) requireSLO(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.slo == nil {
			s.fail(w, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("%s: slo tracker not configured", r.URL.Path)})
			return
		}
		h(w, r)
	}
}

// handleTaskTimeline serves GET /v1/tasks/{id}/timeline: the task's
// reconstructed life as ordered spans, with durations, the pinned pool
// version, and the outcome. The rendering is deterministic in the
// event history, so the same request against a restarted juryd (whose
// engine was rebuilt from WAL replay) returns byte-identical JSON —
// the CI smoke compares exactly that.
func (s *Server) handleTaskTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setTraceTask(w, id)
	tl, ok := s.lifecycle.Timeline(id)
	if !ok {
		s.fail(w, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("no timeline for task %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, tl)
}

// handleLifecycle serves GET /v1/lifecycle: aggregate time-to-verdict,
// time-to-first-vote and invite→vote distributions keyed by (strategy,
// outcome), plus the engine fingerprint.
func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.lifecycle.Snapshot())
}

// handleSLO serves GET /v1/slo: every objective's burn rates and alert
// state, evaluated at request time.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Snapshot(time.Now().UTC()))
}

// PollSLO feeds the http_5xx SLI from the server's cumulative
// per-endpoint counters: every non-ops request served since the last
// poll counts good, every non-ops 5xx counts bad. Ops endpoints are
// excluded so a draining /healthz returning 503 (the probe working as
// designed) cannot burn availability budget. cmd/juryd calls this on
// the SLO evaluation ticker; the request hot path carries no SLO
// bookkeeping at all.
func (s *Server) PollSLO() {
	if s.slo == nil {
		return
	}
	var served, bad int64
	for i := range s.eps {
		if endpoint(i).ops() {
			continue
		}
		served += s.eps[i].requests.Load()
		bad += s.eps[i].errors5xx.Load()
	}
	// commit books a 5xx before its request count, and this loop loads each
	// request count before its 5xx count, so no 5xx is read as good: a poll
	// between the two adds reads one good request too few. The baselines
	// advance only by what was reported, so each good request is reported
	// once, later if not now, and racing polls never report a negative delta.
	good := served - bad
	s.sloPoll.mu.Lock()
	dGood := max(good-s.sloPoll.good, 0)
	dBad := max(bad-s.sloPoll.bad, 0)
	s.sloPoll.good += dGood
	s.sloPoll.bad += dBad
	s.sloPoll.mu.Unlock()
	s.slo.ObserveHTTP(dGood, dBad)
}
