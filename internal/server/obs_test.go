package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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
		"wal_commit_queue_depth", "wal_fsync_batch_hist", "wal_replay_ns",
		"wal_compactions", "compact")

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
		Endpoints map[string]struct {
			Requests int64       `json:"requests"`
			Latency  obs.Summary `json:"latency"`
		} `json:"endpoints"`
		Stages map[string]obs.Summary `json:"stages"`
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
		Errors    int64 `json:"errors"`
		Errors4xx int64 `json:"errors_4xx"`
		Errors5xx int64 `json:"errors_5xx"`
		Endpoints map[string]struct {
			Errors4xx int64 `json:"errors_4xx"`
		} `json:"endpoints"`
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

// TestHealthzReportsWALState checks the healthz WAL fields: commit
// queue depth and last-recovery duration.
func TestHealthzReportsWALState(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	var h map[string]json.RawMessage
	doTaskJSON(t, http.MethodGet, hs.URL+"/healthz", nil, http.StatusOK, &h)
	requireKeys(t, h, "/healthz", "status", "pools", "inflight", "queued",
		"wal_commit_queue_depth", "last_recovery_ns")
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
	have := map[obs.Stage]int64{}
	for _, sp := range tr.Spans {
		have[sp.Stage] += sp.DurNS
	}
	for _, st := range []obs.Stage{obs.StageDecode, obs.StageWALWait, obs.StageStore, obs.StageEncode} {
		if _, ok := have[st]; !ok {
			t.Errorf("task_vote trace missing %s span: %+v", st, tr.Spans)
		}
	}
	if have[obs.StageStore] <= 0 {
		t.Errorf("store stage duration %d, want > 0", have[obs.StageStore])
	}

	// The endpoint filter must actually filter.
	var all debugTracesResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/debug/traces", nil, http.StatusOK, &all)
	if len(all.Traces) < 2 {
		t.Errorf("unfiltered traces = %d, want at least create+vote", len(all.Traces))
	}
}

// TestTraceRingOnlyWhenTracing: with neither sampling nor a slow-request
// threshold nothing is ever captured, so the server builds no ring,
// /debug/traces answers an empty one and juryd_traces_total reads 0.
// Either setting builds it.
func TestTraceRingOnlyWhenTracing(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		ring bool
	}{
		{Config{}, false},
		{Config{TraceEvery: 1}, true},
		{Config{SlowRequest: time.Hour}, true},
	} {
		srv, hs := newDurableTaskServer(t, tc.cfg)
		if (srv.ring != nil) != tc.ring {
			t.Fatalf("%+v: ring built %v, want %v", tc.cfg, srv.ring != nil, tc.ring)
		}
		if tc.ring {
			continue
		}
		doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks", map[string]string{"pool": "crowd"}, http.StatusCreated, nil)
		resp, err := http.Get(hs.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != "{\"total\":0,\"traces\":[]}\n" {
			t.Fatalf("/debug/traces with tracing off: %d %q", resp.StatusCode, body)
		}
		resp, err = http.Get(hs.URL + "/metrics/prometheus")
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if f := fams["juryd_traces_total"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 0 {
			t.Fatalf("juryd_traces_total with tracing off: %+v", f)
		}
	}
}

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

// TestMetricsFormatsAgree pins the single scrape behind both metric
// endpoints: once traffic stops, every value that /metrics and
// /metrics/prometheus both carry reads the same in both, and the
// select-cache total equals the sum of its shard series. The ops
// endpoints are left out: each scrape counts itself.
func TestMetricsFormatsAgree(t *testing.T) {
	srv, hs := newLifecycleServer(t)
	if _, err := srv.tasks.PutPool("panel", flatJurors(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select", map[string]string{"pool": "crowd"}, http.StatusOK, nil)
	}
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select", map[string]string{"pool": "nope"}, http.StatusNotFound, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/jer",
		map[string]any{"error_rates": []float64{0.1, 0.2, 0.3}}, http.StatusOK, nil)
	decideTask(t, hs.URL)
	// A second task stays awaiting votes after a decline (a replacement
	// invite) and one vote.
	var open TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		map[string]any{"pool": "panel", "target_confidence": 1}, http.StatusCreated, &open)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+open.Task.ID+"/votes",
		map[string]any{"juror_id": open.Task.Jurors[0].ID, "decline": true}, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+open.Task.ID+"/votes",
		map[string]any{"juror_id": open.Task.Jurors[1].ID, "vote": true}, http.StatusOK, nil)
	if err := srv.tasks.Compact(); err != nil {
		t.Fatal(err)
	}

	var doc map[string]any
	doTaskJSON(t, http.MethodGet, hs.URL+"/metrics", nil, http.StatusOK, &doc)
	resp, err := http.Get(hs.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	jsonNum := func(path string) float64 {
		var v any = doc
		for _, k := range strings.Split(path, ".") {
			v = v.(map[string]any)[k]
		}
		n, ok := v.(float64)
		if !ok {
			t.Fatalf("/metrics %s = %v, not a number", path, v)
		}
		return n
	}
	// promNum returns the sample named name whose labels include the
	// given key/value pairs; a histogram with no samples has no series
	// and reads 0.
	promNum := func(name string, kv ...string) float64 {
		for _, f := range fams {
		next:
			for _, s := range f.Samples {
				if s.Name != name {
					continue
				}
				for i := 0; i < len(kv); i += 2 {
					if s.Labels[kv[i]] != kv[i+1] {
						continue next
					}
				}
				return s.Value
			}
		}
		if !strings.HasSuffix(name, "_count") {
			t.Errorf("no %s%v sample", name, kv)
		}
		return 0
	}
	agree := func(path, name string, kv ...string) float64 {
		j, p := jsonNum(path), promNum(name, kv...)
		if j != p {
			t.Errorf("%s = %v in /metrics, %s%v = %v in the exposition", path, j, name, kv, p)
		}
		return j
	}

	for _, name := range endpointNames[:epOpsFirst] {
		path := "endpoints." + name + "."
		agree(path+"requests", "juryd_requests_total", "endpoint", name)
		agree(path+"errors_4xx", "juryd_errors_total", "endpoint", name, "class", "4xx")
		agree(path+"errors_5xx", "juryd_errors_total", "endpoint", name, "class", "5xx")
		agree(path+"latency.count", "juryd_request_duration_seconds_count", "endpoint", name)
	}
	if jsonNum("errors") != jsonNum("errors_5xx") {
		t.Errorf("errors %v != errors_5xx %v", jsonNum("errors"), jsonNum("errors_5xx"))
	}
	agree("shed", "juryd_shed_total")
	agree("selections", "juryd_selections_total")
	agree("engine_evaluations", "juryd_engine_evaluations_total")
	agree("engine_cache_hits", "juryd_engine_cache_hits_total")

	hits := agree("select_cache.hits", "juryd_select_cache_events_total", "event", "hit")
	agree("select_cache.misses", "juryd_select_cache_events_total", "event", "miss")
	agree("select_cache.collapsed", "juryd_select_cache_events_total", "event", "collapsed")
	agree("select_cache.hit_ratio", "juryd_select_cache_hit_ratio")
	entries := agree("select_cache.entries", "juryd_select_cache_entries")
	var shardSum float64
	for _, s := range fams["juryd_select_cache_shard_entries"].Samples {
		shardSum += s.Value
	}
	if shardSum != entries {
		t.Errorf("shard series sum to %v, select_cache.entries %v", shardSum, entries)
	}

	for _, st := range []string{"open", "awaiting_votes", "decided", "expired"} {
		agree("tasks."+st, "juryd_tasks", "status", st)
	}
	agree("tasks.wal_appends", "juryd_wal_appends_total")
	agree("tasks.wal_fsyncs", "juryd_wal_fsyncs_total")
	agree("tasks.wal_commit_queue_depth", "juryd_wal_commit_queue_depth")
	agree("tasks.wal_fsync.count", "juryd_wal_fsync_duration_seconds_count")
	agree("tasks.wal_durable_wait.count", "juryd_wal_durable_wait_seconds_count")
	if n := agree("tasks.compact.count", "juryd_tasks_compact_duration_seconds_count"); n != 1 {
		t.Errorf("tasks.compact.count = %v after one compaction, want 1", n)
	}

	insightEvents := agree("insight.events", "juryd_insight_events_total")
	agree("insight.tasks_decided", "juryd_insight_tasks_total", "outcome", "decided")
	agree("insight.tasks_expired", "juryd_insight_tasks_total", "outcome", "expired")
	agree("insight.jurors_tracked", "juryd_insight_jurors_tracked")
	agree("insight.pairs_tracked", "juryd_insight_pairs_tracked")
	agree("insight.pairs_dropped", "juryd_insight_pairs_dropped_total")
	agree("insight.calibration_samples", "juryd_insight_calibration_samples_total")
	agree("insight.brier", "juryd_insight_brier_score")
	lifecycleEvents := agree("lifecycle.events", "juryd_lifecycle_events_total")
	agree("lifecycle.tasks_decided", "juryd_lifecycle_tasks_total", "outcome", "decided")
	agree("lifecycle.tasks_expired", "juryd_lifecycle_tasks_total", "outcome", "expired")
	replacements := agree("lifecycle.replacements", "juryd_lifecycle_replacements_total")
	agree("lifecycle.timelines_retained", "juryd_lifecycle_timelines_retained")
	agree("lifecycle.timelines_evicted", "juryd_lifecycle_timelines_evicted_total")

	// The comparison is only as strong as the traffic behind it.
	if hits == 0 || entries == 0 || insightEvents == 0 || lifecycleEvents == 0 || replacements == 0 ||
		jsonNum("tasks.decided") != 1 || jsonNum("tasks.awaiting_votes") != 1 ||
		jsonNum("insight.pairs_tracked") == 0 || jsonNum("endpoints.select_miss.errors_4xx") != 1 {
		t.Errorf("traffic did not exercise the compared values: %v", doc)
	}
}
