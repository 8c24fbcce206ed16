package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"juryselect/internal/insight"
	"juryselect/internal/obs"
	"juryselect/internal/tasks"
)

// newDurableTaskServer builds a server over a WAL-backed task store with
// a seeded pool and an attached insight engine, returning the server for
// direct field access.
func newDurableTaskServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Insight == nil {
		cfg.Insight = insight.New(0)
	}
	store, err := tasks.Open(tasks.Config{
		Dir: t.TempDir(), Sync: tasks.SyncBatch, Events: cfg.Insight,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() }) //nolint:errcheck
	if _, err := store.PutPool("crowd", testJurors(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.PutPool("panel", flatJurors(7)); err != nil {
		t.Fatal(err)
	}
	cfg.Tasks = store
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// requireKeys fails for every key missing from the decoded JSON object.
func requireKeys(t *testing.T, obj map[string]json.RawMessage, where string, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: missing key %q", where, k)
		}
	}
}

// TestMetricsGoldenKeys pins the /metrics JSON shape: the exact key set
// dashboards scrape. A key rename or removal is a breaking change and
// must fail here first.
func TestMetricsGoldenKeys(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select",
		map[string]string{"pool": "crowd"}, http.StatusOK, nil)

	var top map[string]json.RawMessage
	doTaskJSON(t, http.MethodGet, hs.URL+"/metrics", nil, http.StatusOK, &top)
	requireKeys(t, top, "/metrics",
		"requests", "selections", "batch_selects", "jer_served", "pool_writes",
		"batch_votes", "shed", "errors", "errors_4xx", "errors_5xx",
		"inflight", "max_inflight", "queued", "max_queue",
		"engine_evaluations", "engine_cache_hits", "engine_inflight", "engine_workers",
		"pools", "select_cache", "tasks", "insight", "endpoints", "stages", "runtime",
		"build", "uptime_seconds")

	var build map[string]json.RawMessage
	if err := json.Unmarshal(top["build"], &build); err != nil {
		t.Fatal(err)
	}
	requireKeys(t, build, "build", "version", "go_version", "vcs_revision", "vcs_modified")

	var sc map[string]json.RawMessage
	if err := json.Unmarshal(top["select_cache"], &sc); err != nil {
		t.Fatal(err)
	}
	requireKeys(t, sc, "select_cache",
		"hits", "misses", "collapsed", "entries", "hit_ratio", "shard_entries")

	var ins map[string]json.RawMessage
	if err := json.Unmarshal(top["insight"], &ins); err != nil {
		t.Fatal(err)
	}
	requireKeys(t, ins, "insight",
		"events", "tasks_created", "tasks_decided", "tasks_expired", "tasks_open",
		"votes", "declines", "timeouts", "unknown_task_events",
		"jurors_tracked", "pairs_tracked", "pairs_dropped",
		"calibration_samples", "brier")

	var eps map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["endpoints"], &eps); err != nil {
		t.Fatal(err)
	}
	if len(eps) != int(numEndpoints) {
		t.Errorf("endpoints block has %d entries, want %d", len(eps), numEndpoints)
	}
	for _, name := range endpointNames {
		ep, ok := eps[name]
		if !ok {
			t.Errorf("endpoints: missing %q", name)
			continue
		}
		requireKeys(t, ep, "endpoints."+name, "requests", "errors_4xx", "errors_5xx", "latency")
		var lat map[string]json.RawMessage
		if err := json.Unmarshal(ep["latency"], &lat); err != nil {
			t.Fatal(err)
		}
		requireKeys(t, lat, "endpoints."+name+".latency",
			"count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns")
	}

	var stages map[string]json.RawMessage
	if err := json.Unmarshal(top["stages"], &stages); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < obs.NumStages; i++ {
		if _, ok := stages[obs.Stage(i).String()]; !ok {
			t.Errorf("stages: missing %q", obs.Stage(i).String())
		}
	}

	var tm map[string]json.RawMessage
	if err := json.Unmarshal(top["tasks"], &tm); err != nil {
		t.Fatal(err)
	}
	requireKeys(t, tm, "tasks",
		"wal_appends", "wal_fsyncs", "wal_fsync_p99_ns", "wal_fsync", "wal_durable_wait",
		"wal_commit_queue_depth", "wal_fsync_batch_hist", "wal_replay_ns")

	var rt map[string]json.RawMessage
	if err := json.Unmarshal(top["runtime"], &rt); err != nil {
		t.Fatal(err)
	}
	requireKeys(t, rt, "runtime", "goroutines", "heap_alloc_bytes", "num_gc", "gc_pause_p99_ns")
}

// TestEndpointLatencyHistograms requires every exercised /v1 endpoint to
// export a latency summary with a live count — the tentpole's core
// acceptance check, driven over HTTP.
func TestEndpointLatencyHistograms(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})

	// One request per instrumented family; select twice so the cache
	// serves the second as select_warm.
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/jer",
		map[string]any{"error_rates": []float64{0.1, 0.2, 0.3}}, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select",
		map[string]string{"pool": "crowd"}, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select",
		map[string]string{"pool": "crowd"}, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select/batch",
		map[string]any{"selects": []map[string]string{{"pool": "crowd"}}}, http.StatusOK, nil)
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/pools", nil, http.StatusOK, nil)
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/pools/crowd", nil, http.StatusOK, nil)
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		map[string]string{"pool": "crowd"}, http.StatusCreated, &created)
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks", nil, http.StatusOK, nil)
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks/"+created.Task.ID, nil, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+created.Task.ID+"/votes",
		map[string]any{"juror_id": created.Task.Jurors[0].ID, "vote": true}, http.StatusOK, nil)

	var m struct {
		Endpoints map[string]endpointStats `json:"endpoints"`
		Stages    map[string]obs.Summary   `json:"stages"`
	}
	doTaskJSON(t, http.MethodGet, hs.URL+"/metrics", nil, http.StatusOK, &m)
	for _, ep := range []string{"jer", "select_miss", "select_warm", "select_batch",
		"pool_list", "pool_get", "task_create", "task_list", "task_get", "task_vote"} {
		st := m.Endpoints[ep]
		if st.Requests == 0 || st.Latency.Count == 0 || st.Latency.P99NS == 0 {
			t.Errorf("endpoint %s: requests=%d latency=%+v, want live histogram", ep, st.Requests, st.Latency)
		}
		if st.Latency.P50NS > st.Latency.P99NS || st.Latency.P99NS > st.Latency.MaxNS {
			t.Errorf("endpoint %s: quantiles out of order: %+v", ep, st.Latency)
		}
	}
	// The vote went through a SyncBatch WAL, so the store stage (and the
	// always-on decode/encode/engine stages) must have samples.
	for _, stage := range []string{"decode", "engine", "store", "encode", "cache_probe"} {
		if m.Stages[stage].Count == 0 {
			t.Errorf("stage %s: no samples", stage)
		}
	}
}

// TestErrorsSplitByClass verifies the PR 8 counter split: client errors
// land in errors_4xx, the legacy errors counter is strictly 5xx, and a
// shed counts once under shed — not again as an error (the double-count
// this split removes).
func TestErrorsSplitByClass(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Two client errors: a malformed select and a missing pool.
	doJSON(t, ts.URL+"/v1/select", `{"pool":"nope"}`, http.StatusNotFound)
	doJSON(t, ts.URL+"/v1/select", `{`, http.StatusBadRequest)

	var m struct {
		Errors    int64                    `json:"errors"`
		Errors4xx int64                    `json:"errors_4xx"`
		Errors5xx int64                    `json:"errors_5xx"`
		Shed      int64                    `json:"shed"`
		Endpoints map[string]endpointStats `json:"endpoints"`
	}
	if st := do(t, http.MethodGet, ts.URL+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics status %d", st)
	}
	if m.Errors4xx != 2 || m.Errors != 0 || m.Errors5xx != 0 {
		t.Errorf("errors_4xx=%d errors=%d errors_5xx=%d, want 2/0/0", m.Errors4xx, m.Errors, m.Errors5xx)
	}
	if got := m.Endpoints["select_miss"].Errors4xx; got != 2 {
		t.Errorf("select_miss errors_4xx = %d, want 2", got)
	}
}

// doJSON posts a raw body and checks only the status.
func doJSON(t *testing.T, url, body string, wantStatus int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
}

// TestHealthzReportsWALState checks the PR 8 healthz additions: commit
// queue depth and last-recovery duration with a task store, absent
// without one.
func TestHealthzReportsWALState(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	var h map[string]json.RawMessage
	doTaskJSON(t, http.MethodGet, hs.URL+"/healthz", nil, http.StatusOK, &h)
	requireKeys(t, h, "/healthz", "status", "pools", "inflight", "queued",
		"wal_commit_queue_depth", "last_recovery_ns")

	_, plain := newTestServer(t, Config{})
	var h2 map[string]json.RawMessage
	if st := do(t, http.MethodGet, plain.URL+"/healthz", nil, &h2); st != http.StatusOK {
		t.Fatalf("healthz status %d", st)
	}
	if _, ok := h2["wal_commit_queue_depth"]; ok {
		t.Error("healthz without a task store should omit wal_commit_queue_depth")
	}
}

// TestPrometheusExportParses drives traffic through every subsystem and
// requires /metrics/prometheus to parse under the scraper rules obs
// implements: declared types for every family, cumulative histogram
// buckets, +Inf == _count.
func TestPrometheusExportParses(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select",
		map[string]string{"pool": "crowd"}, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select",
		map[string]string{"pool": "crowd"}, http.StatusOK, nil)
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		map[string]string{"pool": "crowd"}, http.StatusCreated, &created)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+created.Task.ID+"/votes",
		map[string]any{"juror_id": created.Task.Jurors[0].ID, "vote": true}, http.StatusOK, nil)

	resp, err := http.Get(hs.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for fam, typ := range map[string]string{
		"juryd_requests_total":             "counter",
		"juryd_errors_total":               "counter",
		"juryd_shed_total":                 "counter",
		"juryd_request_duration_seconds":   "histogram",
		"juryd_stage_duration_seconds":     "histogram",
		"juryd_wal_fsync_duration_seconds": "histogram",
		"juryd_wal_durable_wait_seconds":   "histogram",
		"juryd_wal_commit_queue_depth":     "gauge",
		"juryd_goroutines":                 "gauge",
		"juryd_heap_alloc_bytes":           "gauge",
		"juryd_build_info":                 "gauge",
		"juryd_uptime_seconds":             "gauge",
	} {
		f, ok := fams[fam]
		if !ok {
			t.Errorf("missing family %s", fam)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s: type %s, want %s", fam, f.Type, typ)
		}
	}
	// The warm select must be its own labelled series.
	var sawWarm bool
	for _, s := range fams["juryd_request_duration_seconds"].Samples {
		if s.Labels["endpoint"] == "select_warm" {
			sawWarm = true
		}
	}
	if !sawWarm {
		t.Error("no select_warm series in juryd_request_duration_seconds")
	}
	// The build-info gauge carries the binary's identity as labels with a
	// constant value of 1 — the standard Prometheus build_info shape.
	bis := fams["juryd_build_info"].Samples
	if len(bis) != 1 || bis[0].Value != 1 ||
		bis[0].Labels["version"] == "" || bis[0].Labels["go"] == "" || bis[0].Labels["revision"] == "" {
		t.Errorf("juryd_build_info = %+v, want one sample of 1 with version/go/revision labels", bis)
	}
}

// TestDebugTracesStageBreakdown samples every request and requires a
// durable vote's trace to carry the stage spans, including the WAL
// durability wait recorded two layers down in the task store.
func TestDebugTracesStageBreakdown(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{TraceEvery: 1})
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		map[string]string{"pool": "crowd"}, http.StatusCreated, &created)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+created.Task.ID+"/votes",
		map[string]any{"juror_id": created.Task.Jurors[0].ID, "vote": true}, http.StatusOK, nil)

	var out debugTracesResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/debug/traces?endpoint=task_vote", nil, http.StatusOK, &out)
	if len(out.Traces) != 1 {
		t.Fatalf("got %d task_vote traces, want 1", len(out.Traces))
	}
	tr := out.Traces[0]
	if tr.Status != http.StatusOK || tr.DurNS <= 0 {
		t.Errorf("trace = %+v, want 200 with positive duration", tr)
	}
	have := map[obs.Stage]bool{}
	for _, sp := range tr.Spans {
		have[sp.Stage] = true
	}
	for _, st := range []obs.Stage{obs.StageDecode, obs.StageWALWait, obs.StageStore, obs.StageEncode} {
		if !have[st] {
			t.Errorf("task_vote trace missing %s span: %+v", st, tr.Spans)
		}
	}
	if tr.StageNS(obs.StageStore) <= 0 {
		t.Errorf("store stage duration %d, want > 0", tr.StageNS(obs.StageStore))
	}

	// The endpoint filter must actually filter.
	var all debugTracesResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/debug/traces", nil, http.StatusOK, &all)
	if len(all.Traces) < 2 {
		t.Errorf("unfiltered traces = %d, want at least create+vote", len(all.Traces))
	}
}

// TestWarmSelectAllocations is the overhead guard at test granularity:
// with tracing disabled, the fully instrumented warm select must stay
// within the PR 7 allocation budget — instrumentation adds zero.
func TestWarmSelectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector degrades sync.Pool reuse; allocation counts are not meaningful")
	}
	srv := New(Config{})
	if _, err := srv.Store().Put("crowd", testJurors(101)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body := `{"pool":"crowd"}`
	rdr := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/select", nil)
	w := &allocWriter{h: make(http.Header)}
	run := func() {
		rdr.Reset(body)
		req.Body = io.NopCloser(rdr)
		req.ContentLength = int64(len(body))
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	run() // prime the cache
	// The PR 7 baseline is 16 allocs/op for the warm select
	// (BENCH_PR7.json); instrumentation must not add any.
	if got := testing.AllocsPerRun(200, run); got > 16 {
		t.Errorf("warm select allocates %.1f/op, budget 16 (instrumentation must add 0)", got)
	}
}

type allocWriter struct {
	h      http.Header
	status int
}

func (w *allocWriter) Header() http.Header         { return w.h }
func (w *allocWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *allocWriter) WriteHeader(status int)      { w.status = status }

// TestMetricsScrapeUnderLoad hammers selects, votes and pool writes
// while scraping every observability endpoint — the -race guard for the
// scrape paths reading histograms and the trace ring mid-write.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{TraceEvery: 3, TraceRingSize: 32})
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		map[string]string{"pool": "crowd"}, http.StatusCreated, &created)

	const iters = 30
	var wg sync.WaitGroup
	hammer := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}
	hammer(func(int) {
		doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select",
			map[string]string{"pool": "crowd"}, http.StatusOK, nil)
	})
	hammer(func(i int) {
		// Votes on an already-closed task still exercise the full path;
		// accept the conflict statuses the lifecycle produces.
		body, _ := json.Marshal(map[string]any{
			"juror_id": created.Task.Jurors[i%len(created.Task.Jurors)].ID, "vote": i%2 == 0})
		resp, err := http.Post(hs.URL+"/v1/tasks/"+created.Task.ID+"/votes",
			"application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	})
	hammer(func(i int) {
		doTaskJSON(t, http.MethodPatch, hs.URL+"/v1/pools/crowd/jurors",
			map[string]any{"updates": []map[string]any{{"id": "j000", "error_rate": 0.1 + float64(i%5)/100}}},
			http.StatusOK, nil)
	})
	for _, path := range []string{"/metrics", "/metrics/prometheus", "/debug/traces", "/healthz"} {
		path := path
		hammer(func(int) {
			resp, err := http.Get(hs.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		})
	}
	wg.Wait()

	// The exposition must still parse after the dust settles.
	resp, err := http.Get(hs.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := obs.ParseProm(resp.Body); err != nil {
		t.Fatalf("exposition does not parse after load: %v", err)
	}
}
