package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"juryselect/internal/insight"
	"juryselect/internal/memo"
	"juryselect/internal/obs"
	"juryselect/jury"
)

// flatJurors returns a pool whose error rates are close enough that
// the JER-minimizing jury is a multi-juror majority — testJurors' best
// juror (ε 0.05) beats any majority over its steep spread, which would
// leave decided tasks with a single vote and no co-vote pairs.
func flatJurors(n int) []jury.Juror {
	out := make([]jury.Juror, n)
	for i := range out {
		out[i] = jury.Juror{
			ID:        fmt.Sprintf("p%03d", i),
			ErrorRate: 0.1 + 0.3*float64(i)/float64(n),
			Cost:      1,
		}
	}
	return out
}

// decideTask drives one task over HTTP to a unanimous verdict and
// returns its view. target_confidence 1 disables early stop, so every
// jury member votes — co-vote pairs need at least two votes per task.
func decideTask(t *testing.T, baseURL string) TaskResponse {
	t.Helper()
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, baseURL+"/v1/tasks",
		map[string]any{"pool": "panel", "target_confidence": 1}, http.StatusCreated, &created)
	for _, j := range created.Task.Jurors {
		var view TaskResponse
		doTaskJSON(t, http.MethodPost, baseURL+"/v1/tasks/"+created.Task.ID+"/votes",
			map[string]any{"juror_id": j.ID, "vote": true}, http.StatusOK, &view)
		if view.Task.Verdict != nil {
			break
		}
	}
	return created
}

// TestInsightEndpoints drives tasks to verdicts over HTTP and checks the
// three /v1/insight views: juror profiles with live counters, calibration
// bins holding every decided task, and co-vote pairs — all stamped with
// one consistent fingerprint.
func TestInsightEndpoints(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	decideTask(t, hs.URL)
	decideTask(t, hs.URL)

	var jr insightJurorsResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/insight/jurors", nil, http.StatusOK, &jr)
	if jr.Total == 0 || len(jr.Jurors) != jr.Total {
		t.Fatalf("jurors = %+v", jr)
	}
	var votes int64
	for _, p := range jr.Jurors {
		votes += p.Votes
		if p.Invites == 0 {
			t.Errorf("juror %s has profile but no invites", p.ID)
		}
		if p.Votes > 0 && p.Latency.Count != p.Votes {
			t.Errorf("juror %s: %d votes but latency count %d", p.ID, p.Votes, p.Latency.Count)
		}
	}
	if votes == 0 {
		t.Fatal("no votes recorded across profiles")
	}

	var cal insightCalibrationResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/insight/calibration", nil, http.StatusOK, &cal)
	if cal.TasksDecided != 2 || cal.Calibration.Overall.Total != 2 {
		t.Fatalf("calibration = %+v", cal)
	}
	if len(cal.Calibration.Overall.Bins) == 0 {
		t.Fatal("calibration has no occupied bins")
	}
	if _, ok := cal.Calibration.ByStrategy["altr"]; !ok {
		t.Fatalf("no altr strategy breakdown: %+v", cal.Calibration.ByStrategy)
	}
	if cal.Fingerprint != jr.Fingerprint {
		t.Errorf("fingerprint mismatch across endpoints: %s vs %s", cal.Fingerprint, jr.Fingerprint)
	}

	var ag insightAgreementResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/insight/agreement", nil, http.StatusOK, &ag)
	if ag.Agreement.TrackedPairs == 0 || len(ag.Agreement.Pairs) != ag.Agreement.TrackedPairs {
		t.Fatalf("agreement = %+v", ag.Agreement)
	}
	// Unanimous yes votes: every tracked pair agreed every time.
	for _, p := range ag.Agreement.Pairs {
		if p.Rate != 1 {
			t.Errorf("pair %s/%s rate %g, want 1 (unanimous votes)", p.A, p.B, p.Rate)
		}
	}

	// ?limit truncates without changing the fingerprint or the total.
	var limited insightJurorsResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/insight/jurors?limit=1", nil, http.StatusOK, &limited)
	if len(limited.Jurors) != 1 || limited.Total != jr.Total || limited.Fingerprint != jr.Fingerprint {
		t.Fatalf("limited jurors = %+v", limited)
	}
	var badLimit map[string]any
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/insight/jurors?limit=-1", nil, http.StatusBadRequest, &badLimit)

	// The /metrics insight block tracks the same counters.
	var m struct {
		Insight *insight.Stats `json:"insight"`
	}
	doTaskJSON(t, http.MethodGet, hs.URL+"/metrics", nil, http.StatusOK, &m)
	if m.Insight == nil || m.Insight.TasksDecided != 2 || m.Insight.Votes != votes {
		t.Fatalf("metrics insight block = %+v (want 2 decided, %d votes)", m.Insight, votes)
	}
}

// TestInsightNotConfigured: a server without an engine answers 404 on
// the insight routes, mirroring the task-store guard.
func TestInsightNotConfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out map[string]any
	if st := do(t, http.MethodGet, ts.URL+"/v1/insight/calibration", nil, &out); st != http.StatusNotFound {
		t.Fatalf("status %d, want 404", st)
	}
}

// TestInsightPromSeries checks the Prometheus exposition carries the
// insight families with parseable, consistent values.
func TestInsightPromSeries(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	decideTask(t, hs.URL)

	resp, err := http.Get(hs.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for fam, typ := range map[string]string{
		"juryd_insight_events_total":              "counter",
		"juryd_insight_tasks_total":               "counter",
		"juryd_insight_jurors_tracked":            "gauge",
		"juryd_insight_pairs_tracked":             "gauge",
		"juryd_insight_calibration_samples_total": "counter",
		"juryd_insight_brier_score":               "gauge",
		"juryd_select_cache_hit_ratio":            "gauge",
		"juryd_select_cache_shard_entries":        "gauge",
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
	var decided float64
	for _, s := range fams["juryd_insight_tasks_total"].Samples {
		if s.Labels["outcome"] == "decided" {
			decided = s.Value
		}
	}
	if decided != 1 {
		t.Errorf("decided tasks series = %g, want 1", decided)
	}
	if n := len(fams["juryd_select_cache_shard_entries"].Samples); n != memo.Shards {
		t.Errorf("shard entry series = %d, want %d", n, memo.Shards)
	}
}

// TestSelectCacheDerivedMetrics pins the satellite: hit_ratio derives
// from the raw counters and shard_entries sums to entries.
func TestSelectCacheDerivedMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if _, err := srv.tasks.PutPool("crowd", testJurors(7)); err != nil {
		t.Fatal(err)
	}
	doJSON(t, ts.URL+"/v1/select", `{"pool":"crowd"}`, http.StatusOK)
	doJSON(t, ts.URL+"/v1/select", `{"pool":"crowd"}`, http.StatusOK)
	doJSON(t, ts.URL+"/v1/select", `{"pool":"crowd"}`, http.StatusOK)

	var m struct {
		SelectCache *struct {
			Hits         int64   `json:"hits"`
			Misses       int64   `json:"misses"`
			Entries      int     `json:"entries"`
			HitRatio     float64 `json:"hit_ratio"`
			ShardEntries []int   `json:"shard_entries"`
		} `json:"select_cache"`
	}
	if st := do(t, http.MethodGet, ts.URL+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics status %d", st)
	}
	sc := m.SelectCache
	if sc == nil {
		t.Fatal("no select_cache block")
	}
	if sc.Hits != 2 || sc.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", sc.Hits, sc.Misses)
	}
	if want := 2.0 / 3.0; sc.HitRatio != want {
		t.Errorf("hit_ratio %g, want %g", sc.HitRatio, want)
	}
	sum := 0
	for _, n := range sc.ShardEntries {
		sum += n
	}
	if len(sc.ShardEntries) != memo.Shards || sum != sc.Entries {
		t.Errorf("shard_entries %v (sum %d) vs entries %d", sc.ShardEntries, sum, sc.Entries)
	}
}

// TestDebugTracesTaskIDFilter pins the satellite: lifecycle requests
// carry their task ID in the captured trace, and ?task_id= isolates one
// task's requests.
func TestDebugTracesTaskIDFilter(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{TraceEvery: 1})
	first := decideTask(t, hs.URL)
	second := decideTask(t, hs.URL)
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks/"+first.Task.ID, nil, http.StatusOK, nil)

	var out debugTracesResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/debug/traces?task_id="+first.Task.ID,
		nil, http.StatusOK, &out)
	if len(out.Traces) == 0 {
		t.Fatal("no traces for task_id filter")
	}
	sawEndpoints := map[string]bool{}
	for _, tr := range out.Traces {
		if tr.TaskID != first.Task.ID {
			t.Errorf("trace %d: task_id %q leaked through filter for %q", tr.ID, tr.TaskID, first.Task.ID)
		}
		sawEndpoints[tr.Endpoint] = true
	}
	for _, ep := range []string{"task_create", "task_vote", "task_get"} {
		if !sawEndpoints[ep] {
			t.Errorf("task lifecycle endpoint %s missing from filtered traces: %v", ep, sawEndpoints)
		}
	}

	// The filter composes with endpoint=.
	var votes debugTracesResponse
	doTaskJSON(t, http.MethodGet,
		hs.URL+"/debug/traces?task_id="+second.Task.ID+"&endpoint=task_vote",
		nil, http.StatusOK, &votes)
	if len(votes.Traces) == 0 {
		t.Fatal("no task_vote traces for second task")
	}
	for _, tr := range votes.Traces {
		if tr.Endpoint != "task_vote" || tr.TaskID != second.Task.ID {
			t.Errorf("trace = endpoint %q task %q, want task_vote on %q", tr.Endpoint, tr.TaskID, second.Task.ID)
		}
	}

	// Non-task traffic captures with no task ID attached.
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/select",
		map[string]string{"pool": "crowd"}, http.StatusOK, nil)
	var selects debugTracesResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/debug/traces?endpoint=select_miss",
		nil, http.StatusOK, &selects)
	for _, tr := range selects.Traces {
		if tr.TaskID != "" {
			t.Errorf("select trace carries task_id %q", tr.TaskID)
		}
	}
}

// jsonRoundTrip guards the Trace.TaskID wire shape: present on task
// traces, elided otherwise.
func TestTraceTaskIDElidedWhenEmpty(t *testing.T) {
	raw, err := json.Marshal(obs.Trace{ID: 1, Endpoint: "jer"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["task_id"]; ok {
		t.Error("empty task_id should be elided from trace JSON")
	}
}
