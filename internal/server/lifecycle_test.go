package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"juryselect/internal/insight"
	"juryselect/internal/lifecycle"
	"juryselect/internal/tasks"
)

// newLifecycleServer builds a durable task server wired the way
// cmd/juryd wires it: insight and lifecycle engines share the store's
// event sink (attached before Open so replay would feed them too), the
// SLO tracker rides the lifecycle engine, and a watchdog watches the
// store.
func newLifecycleServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ins := insight.New(0)
	lce := lifecycle.New(0)
	slo := lifecycle.NewSLO([]lifecycle.Objective{
		{Name: "availability", SLI: lifecycle.SLIHTTP5xx, Target: 0.999},
		{Name: "verdict-p99", SLI: lifecycle.SLIVerdictLatency, Target: 0.99,
			ThresholdNS: int64(time.Hour)},
	}, lifecycle.DefaultBurnWindows(), nil, slog.New(slog.DiscardHandler))
	lce.AttachSLO(slo)
	store, err := tasks.Open(tasks.Config{
		Dir: t.TempDir(), Sync: tasks.SyncBatch, Events: tasks.Sinks(ins, lce),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() }) //nolint:errcheck
	if _, err := store.PutPool("crowd", testJurors(7)); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Tasks: store, Insight: ins, Lifecycle: lce, SLO: slo,
		Watchdog: lifecycle.NewWatchdog(store, 0, time.Second),
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// TestTimelineEndpoint drives one task to a verdict over HTTP and reads
// its reconstructed life back: ordered spans, the pinned pool version,
// the outcome, and a stable fingerprint (two reads render byte-identical
// JSON — the property the CI smoke compares across a kill -9 restart).
func TestTimelineEndpoint(t *testing.T) {
	_, hs := newLifecycleServer(t)
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		map[string]string{"pool": "crowd"}, http.StatusCreated, &created)
	for _, j := range created.Task.Jurors {
		var tr TaskResponse
		doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+created.Task.ID+"/votes",
			map[string]any{"juror_id": j.ID, "vote": true}, http.StatusOK, &tr)
		if tr.Task.Status != tasks.StatusOpen {
			break
		}
	}

	var tl lifecycle.Timeline
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks/"+created.Task.ID+"/timeline",
		nil, http.StatusOK, &tl)
	if tl.Task != created.Task.ID || tl.Outcome != "decided" {
		t.Fatalf("timeline = %s/%s, want %s/decided", tl.Task, tl.Outcome, created.Task.ID)
	}
	if tl.PoolVersion == 0 || tl.Fingerprint == "" {
		t.Errorf("timeline missing provenance: version=%d fingerprint=%q", tl.PoolVersion, tl.Fingerprint)
	}
	if len(tl.Spans) < 2 || tl.Spans[0].Kind != "create" || tl.Spans[len(tl.Spans)-1].Kind != "close" {
		t.Errorf("spans = %+v, want create..close", tl.Spans)
	}
	if tl.Votes == 0 || tl.TimeToVerdictNS < 0 {
		t.Errorf("votes=%d ttv=%d, want a decided task's counts", tl.Votes, tl.TimeToVerdictNS)
	}

	// Unknown task: 404 from the handler, not an empty timeline.
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks/nope/timeline", nil, http.StatusNotFound, nil)

	// Rendering is deterministic: a second read returns identical bytes.
	read := func() []byte {
		resp, err := http.Get(hs.URL + "/v1/tasks/" + created.Task.ID + "/timeline")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := read(), read(); !bytes.Equal(a, b) {
		t.Errorf("timeline not deterministic:\n%s\n%s", a, b)
	}

	// The aggregate view folds the closed task under its strategy.
	var snap lifecycle.Snapshot
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/lifecycle", nil, http.StatusOK, &snap)
	if snap.TasksDecided != 1 || len(snap.Aggregates) == 0 || snap.Fingerprint == "" {
		t.Errorf("lifecycle snapshot = %+v, want one decided task with aggregates", snap)
	}

	// The SLO tracker saw the verdict through the lifecycle engine.
	var sloSnap lifecycle.SLOSnapshot
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/slo", nil, http.StatusOK, &sloSnap)
	for _, o := range sloSnap.Objectives {
		if o.SLI == lifecycle.SLIVerdictLatency && o.Good+o.Bad != 1 {
			t.Errorf("verdict objective saw %d/%d events, want 1 total", o.Good, o.Bad)
		}
	}
}

// TestLifecycleEndpointsRequireEngine pins the guard: without a
// lifecycle engine or SLO tracker the routes do not exist.
func TestLifecycleEndpointsRequireEngine(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	for _, path := range []string{"/v1/tasks/t00000000/timeline", "/v1/lifecycle", "/v1/slo"} {
		doTaskJSON(t, http.MethodGet, hs.URL+path, nil, http.StatusNotFound, nil)
	}
}

// TestHealthzStallBlock checks the watchdog surface: a healthy store
// reports a stall block with healthy=true; servers without a watchdog
// omit it.
func TestHealthzStallBlock(t *testing.T) {
	_, hs := newLifecycleServer(t)
	var h struct {
		Status string                 `json:"status"`
		Stall  *lifecycle.StallReport `json:"stall"`
	}
	doTaskJSON(t, http.MethodGet, hs.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Stall == nil || !h.Stall.Healthy || h.Status != "ok" {
		t.Fatalf("healthz = %+v, want healthy stall block", h)
	}

	_, plain := newTestServer(t, Config{})
	var h2 map[string]any
	if st := do(t, http.MethodGet, plain.URL+"/healthz", nil, &h2); st != http.StatusOK {
		t.Fatalf("healthz status %d", st)
	}
	if _, ok := h2["stall"]; ok {
		t.Error("healthz without a watchdog should omit the stall block")
	}
}

// TestPollSLOCountsOnlyNonOpsTraffic feeds the http_5xx SLI straight
// from the endpoint counters and checks the ops exclusion: probe and
// scrape traffic (including a draining healthz 503) never burns
// availability budget.
func TestPollSLOCountsOnlyNonOpsTraffic(t *testing.T) {
	slo := lifecycle.NewSLO([]lifecycle.Objective{
		{Name: "availability", SLI: lifecycle.SLIHTTP5xx, Target: 0.999},
	}, lifecycle.DefaultBurnWindows(), nil, slog.New(slog.DiscardHandler))
	s := New(Config{SLO: slo})

	s.eps[epPoolList].requests.Add(3)
	s.eps[epSelectMiss].requests.Add(2)
	s.eps[epSelectMiss].errors5xx.Add(1)
	s.eps[epOpsHealthz].requests.Add(50)
	s.eps[epOpsHealthz].errors5xx.Add(50) // draining probes: all 503
	s.PollSLO()

	st := slo.Evaluate(time.Now().UTC())[0]
	if st.Good != 4 || st.Bad != 1 {
		t.Fatalf("availability saw %d/%d, want 4 good / 1 bad (ops excluded)", st.Good, st.Bad)
	}

	// A second poll with no new traffic adds nothing.
	s.PollSLO()
	st = slo.Evaluate(time.Now().UTC())[0]
	if st.Good != 4 || st.Bad != 1 {
		t.Fatalf("idle poll moved totals to %d/%d", st.Good, st.Bad)
	}
}

// TestOpsEndpointsInstrumented pins the ops group's booking contract:
// each route counts under its own endpoint before the client holds the
// response, and records its latency by the time the handler returns.
func TestOpsEndpointsInstrumented(t *testing.T) {
	srv, hs := newDurableTaskServer(t, Config{})
	for _, c := range []struct {
		path string
		ep   endpoint
	}{
		{"/healthz", epOpsHealthz},
		{"/metrics", epOpsMetrics},
		{"/metrics/prometheus", epOpsMetricsProm},
		{"/debug/traces", epOpsDebugTraces},
	} {
		// The direct call goes first: a client request's latency may land
		// after the client has its response, and would race the count.
		em := &srv.eps[c.ep]
		lat := em.lat.Snapshot().Count
		srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, c.path, nil))
		if got := em.lat.Snapshot().Count; got != lat+1 {
			t.Errorf("%s: latency count = %d after ServeHTTP returned, want %d", c.ep, got, lat+1)
		}

		before := em.requests.Load()
		resp, err := http.Get(hs.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := em.requests.Load(); got != before+1 {
			t.Errorf("%s: requests = %d after the response, want %d", c.ep, got, before+1)
		}
	}
	var m struct {
		Endpoints map[string]endpointStats `json:"endpoints"`
	}
	doTaskJSON(t, http.MethodGet, hs.URL+"/metrics", nil, http.StatusOK, &m)
	for _, name := range []string{"ops_healthz", "ops_metrics", "ops_metrics_prom", "ops_debug_traces"} {
		if st := m.Endpoints[name]; st.Requests < 2 || st.Latency.Count == 0 {
			t.Errorf("endpoint %s: requests=%d latency.count=%d, want instrumented",
				name, st.Requests, st.Latency.Count)
		}
	}
}
