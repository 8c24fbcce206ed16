package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"juryselect/internal/dataio"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// testJurors returns n jurors with distinct IDs, ε spread over
// [0.05, 0.95) and costs cycling over seven levels.
func testJurors(n int) []jury.Juror {
	out := make([]jury.Juror, n)
	for i := range out {
		out[i] = jury.Juror{
			ID:        fmt.Sprintf("j%03d", i),
			ErrorRate: 0.05 + 0.9*float64(i)/float64(n),
			Cost:      0.1 + float64(i%7)*0.05,
		}
	}
	return out
}

func f64(v float64) *float64 { return &v }

// newTestServer starts an httptest server over a fresh Server with the
// given config and returns both.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues a JSON request and decodes the response body into out (when
// non-nil), returning the status code.
func do(t testing.TB, method, url string, body, out any) int {
	t.Helper()
	var r io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response (%d): %v\n%s", method, url, resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode
}

func putPool(t testing.TB, base, name string, jurors []jury.Juror) {
	t.Helper()
	req := PutJurorsRequest{}
	for _, j := range jurors {
		req.Jurors = append(req.Jurors, dataio.JurorJSON{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost})
	}
	if code := do(t, http.MethodPut, base+"/v1/pools/"+name+"/jurors", req, nil); code != http.StatusOK {
		t.Fatalf("PUT pool: status %d", code)
	}
}

func TestJEREndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rates := []float64{0.1, 0.2, 0.3}
	var resp JERResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/jer", JERRequest{ErrorRates: rates}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, err := jury.JER(rates)
	if err != nil {
		t.Fatal(err)
	}
	if resp.JER != want || resp.Size != 3 {
		t.Errorf("got %+v, want JER %g size 3", resp, want)
	}
}

func TestJEREndpointRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"empty rates", JERRequest{}},
		{"rate at 1", JERRequest{ErrorRates: []float64{0.2, 1.0}}},
		{"rate at 0", JERRequest{ErrorRates: []float64{0.0}}},
		{"negative timeout", JERRequest{ErrorRates: []float64{0.2}, TimeoutMS: -5}},
		{"unknown field", map[string]any{"rates": []float64{0.2}}},
	}
	for _, tc := range cases {
		var errResp errorResponse
		if code := do(t, http.MethodPost, ts.URL+"/v1/jer", tc.body, &errResp); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, errResp.Error)
		}
	}
}

func TestSelectFromInlineCandidates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cands := testJurors(9)
	req := SelectRequest{}
	for _, j := range cands {
		req.Candidates = append(req.Candidates, dataio.JurorJSON{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost})
	}
	var resp SelectResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/select", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, err := jury.SelectAltruistic(cands)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Selection.JER != want.JER || resp.Selection.Size != want.Size() {
		t.Errorf("got JER %g size %d, want %g/%d", resp.Selection.JER, resp.Selection.Size, want.JER, want.Size())
	}
	if resp.Pool != "" || resp.PoolVersion != 0 {
		t.Errorf("inline selection reported pool %q v%d", resp.Pool, resp.PoolVersion)
	}
	if resp.Selection.Model != "altr" {
		t.Errorf("model %q", resp.Selection.Model)
	}
}

func TestSelectFromPoolReportsVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putPool(t, ts.URL, "crowd", testJurors(9))
	var resp SelectResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/select", SelectRequest{Pool: "crowd"}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Pool != "crowd" || resp.PoolVersion != 1 {
		t.Errorf("got pool %q v%d, want crowd v1", resp.Pool, resp.PoolVersion)
	}
	want, err := jury.SelectAltruistic(testJurors(9))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Selection.JER != want.JER {
		t.Errorf("pool selection JER %g, want %g", resp.Selection.JER, want.JER)
	}
}

func TestSelectPayRespectsBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putPool(t, ts.URL, "crowd", testJurors(9))
	var resp SelectResponse
	req := SelectRequest{Pool: "crowd", Model: "pay", Budget: 0.5}
	if code := do(t, http.MethodPost, ts.URL+"/v1/select", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Selection.Cost > 0.5+1e-12 {
		t.Errorf("cost %g over budget", resp.Selection.Cost)
	}
	if resp.Selection.Size%2 != 1 {
		t.Errorf("even jury size %d", resp.Selection.Size)
	}
	// Exact enumeration must be at least as good as the greedy.
	var exact SelectResponse
	req.Exact = true
	if code := do(t, http.MethodPost, ts.URL+"/v1/select", req, &exact); code != http.StatusOK {
		t.Fatalf("exact status %d", code)
	}
	if exact.Selection.JER > resp.Selection.JER+1e-12 {
		t.Errorf("exact %g worse than greedy %g", exact.Selection.JER, resp.Selection.JER)
	}
}

func TestSelectRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putPool(t, ts.URL, "crowd", testJurors(30))
	inline := []any{map[string]any{"id": "a", "error_rate": 0.2}}
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no source", SelectRequest{}, http.StatusBadRequest},
		{"both sources", map[string]any{"pool": "crowd", "candidates": inline}, http.StatusBadRequest},
		{"missing pool", SelectRequest{Pool: "ghost"}, http.StatusNotFound},
		{"bad model", SelectRequest{Pool: "crowd", Model: "quantum"}, http.StatusBadRequest},
		{"budget under altr", SelectRequest{Pool: "crowd", Budget: 0.5}, http.StatusBadRequest},
		{"exact under altr", SelectRequest{Pool: "crowd", Exact: true}, http.StatusBadRequest},
		{"negative budget", SelectRequest{Pool: "crowd", Model: "pay", Budget: -1}, http.StatusBadRequest},
		{"exact too large", SelectRequest{Pool: "crowd", Model: "pay", Budget: 1, Exact: true}, http.StatusBadRequest},
		{"invalid inline juror", map[string]any{"candidates": []any{map[string]any{"id": "x", "error_rate": 2.0}}}, http.StatusBadRequest},
		{"infeasible budget", SelectRequest{Pool: "crowd", Model: "pay", Budget: 0.001}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var errResp errorResponse
		if code := do(t, http.MethodPost, ts.URL+"/v1/select", tc.body, &errResp); code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, errResp.Error)
		}
	}
}

func TestPoolCRUDRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putPool(t, ts.URL, "crowd", []jury.Juror{
		{ID: "a", ErrorRate: 0.1}, {ID: "b", ErrorRate: 0.2}, {ID: "c", ErrorRate: 0.45},
	})

	var pool PoolResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/pools/crowd", nil, &pool); code != http.StatusOK {
		t.Fatalf("GET pool: status %d", code)
	}
	if pool.Version != 1 || pool.Size != 3 || len(pool.Jurors) != 3 {
		t.Fatalf("pool = %+v", pool)
	}

	// Fold votes: c answered 50 tasks, none wrong — its estimate drops.
	patch := PatchJurorsRequest{Updates: []JurorUpdateJSON{
		{ID: "c", Votes: &VotesJSON{Wrong: 0, Total: 50}},
	}}
	var patched PoolResponse
	if code := do(t, http.MethodPatch, ts.URL+"/v1/pools/crowd/jurors", patch, &patched); code != http.StatusOK {
		t.Fatalf("PATCH: status %d", code)
	}
	if patched.Version != 2 {
		t.Errorf("patched version %d, want 2", patched.Version)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/pools/crowd", nil, &pool); code != http.StatusOK {
		t.Fatal("GET after patch failed")
	}
	for _, j := range pool.Jurors {
		if j.ID == "c" {
			if j.ErrorRate >= 0.45 {
				t.Errorf("votes did not re-estimate: ε = %g", j.ErrorRate)
			}
			if j.TotalVotes != 50 || j.WrongVotes != 0 {
				t.Errorf("vote record %d/%d", j.WrongVotes, j.TotalVotes)
			}
		}
	}

	var list PoolListResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/pools", nil, &list); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if len(list.Pools) != 1 || list.Pools[0].Name != "crowd" || list.Pools[0].Jurors != nil {
		t.Errorf("list = %+v", list)
	}

	if code := do(t, http.MethodDelete, ts.URL+"/v1/pools/crowd", nil, nil); code != http.StatusNoContent {
		t.Errorf("DELETE status %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/pools/crowd", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET after delete status %d", code)
	}
}

func TestPoolGetReportsCredibleInterval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putPool(t, ts.URL, "crowd", []jury.Juror{
		{ID: "fresh", ErrorRate: 0.2}, {ID: "seasoned", ErrorRate: 0.2},
	})
	patch := PatchJurorsRequest{Updates: []JurorUpdateJSON{
		{ID: "seasoned", Votes: &VotesJSON{Wrong: 100, Total: 500}},
	}}
	if code := do(t, http.MethodPatch, ts.URL+"/v1/pools/crowd/jurors", patch, nil); code != http.StatusOK {
		t.Fatalf("PATCH: status %d", code)
	}
	var pool PoolResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/pools/crowd", nil, &pool); code != http.StatusOK {
		t.Fatalf("GET pool: status %d", code)
	}
	widths := map[string]float64{}
	for _, j := range pool.Jurors {
		if !(0 <= j.RateLo && j.RateLo < j.ErrorRate && j.ErrorRate < j.RateHi && j.RateHi <= 1) {
			t.Errorf("juror %s: interval [%g, %g] does not bracket ε = %g", j.ID, j.RateLo, j.RateHi, j.ErrorRate)
		}
		widths[j.ID] = j.RateHi - j.RateLo
	}
	// 500 observed votes dominate the 10-task prior: the seasoned juror's
	// interval must be much tighter than the fresh juror's.
	if widths["seasoned"] >= widths["fresh"]/2 {
		t.Errorf("interval widths fresh=%g seasoned=%g: votes did not tighten the estimate",
			widths["fresh"], widths["seasoned"])
	}
}

func TestVoteDriftChangesSelection(t *testing.T) {
	// The paper's online framing end to end: an initially mediocre juror
	// builds a strong voting record, the PATCH path re-estimates it, and
	// the next selection picks a different jury.
	_, ts := newTestServer(t, Config{})
	putPool(t, ts.URL, "crowd", []jury.Juror{
		{ID: "good1", ErrorRate: 0.10},
		{ID: "good2", ErrorRate: 0.12},
		{ID: "good3", ErrorRate: 0.14},
		{ID: "sleeper", ErrorRate: 0.40},
	})
	var before SelectResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/select", SelectRequest{Pool: "crowd"}, &before); code != http.StatusOK {
		t.Fatal("select failed")
	}
	for _, j := range before.Selection.Jurors {
		if j.ID == "sleeper" {
			t.Fatal("sleeper selected before its record")
		}
	}
	patch := PatchJurorsRequest{Updates: []JurorUpdateJSON{
		{ID: "sleeper", Votes: &VotesJSON{Wrong: 0, Total: 2000}},
	}}
	if code := do(t, http.MethodPatch, ts.URL+"/v1/pools/crowd/jurors", patch, nil); code != http.StatusOK {
		t.Fatal("patch failed")
	}
	var after SelectResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/select", SelectRequest{Pool: "crowd"}, &after); code != http.StatusOK {
		t.Fatal("select failed")
	}
	if after.PoolVersion != 2 {
		t.Errorf("selection ran on version %d, want 2", after.PoolVersion)
	}
	found := false
	for _, j := range after.Selection.Jurors {
		found = found || j.ID == "sleeper"
	}
	if !found {
		t.Errorf("sleeper still unselected after 2000 correct votes: %+v", after.Selection.Jurors)
	}
	if after.Selection.JER >= before.Selection.JER {
		t.Errorf("JER did not improve: %g → %g", before.Selection.JER, after.Selection.JER)
	}
}

func TestAdmissionShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: -1})
	// Occupy the only inflight slot; queueing is disabled, so the next
	// evaluation request must shed immediately.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	var errResp errorResponse
	code := do(t, http.MethodPost, ts.URL+"/v1/jer", JERRequest{ErrorRates: []float64{0.2}}, &errResp)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", code, errResp.Error)
	}
	var m struct {
		Shed int64 `json:"shed"`
	}
	if do(t, http.MethodGet, ts.URL+"/metrics", nil, &m); m.Shed != 1 {
		t.Errorf("shed counter %d, want 1", m.Shed)
	}
	// Pool reads stay available under shed: only evaluations queue.
	if code := do(t, http.MethodGet, ts.URL+"/v1/pools", nil, nil); code != http.StatusOK {
		t.Errorf("pool list sheds: %d", code)
	}
}

func TestQueuedRequestHonoursDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 8})
	s.sem <- struct{}{} // slot stays busy past the request's deadline
	defer func() { <-s.sem }()
	var errResp errorResponse
	code := do(t, http.MethodPost, ts.URL+"/v1/jer",
		JERRequest{ErrorRates: []float64{0.2}, TimeoutMS: 30}, &errResp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", code, errResp.Error)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var h healthResponse
	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
	s.SetDraining(true)
	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v", code, h)
	}
	s.SetDraining(false)
	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz after drain cleared = %d", code)
	}
}

func TestMetricsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putPool(t, ts.URL, "crowd", testJurors(20))
	for i := 0; i < 3; i++ {
		if code := do(t, http.MethodPost, ts.URL+"/v1/select", SelectRequest{Pool: "crowd"}, nil); code != http.StatusOK {
			t.Fatal("select failed")
		}
	}
	do(t, http.MethodPost, ts.URL+"/v1/jer", JERRequest{ErrorRates: []float64{0.1, 0.2, 0.3}}, nil)
	var m struct {
		Requests          int64 `json:"requests"`
		Selections        int64 `json:"selections"`
		JERServed         int64 `json:"jer_served"`
		PoolWrites        int64 `json:"pool_writes"`
		Pools             int   `json:"pools"`
		EngineEvaluations int64 `json:"engine_evaluations"`
	}
	if code := do(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatal("metrics failed")
	}
	if m.Selections != 3 || m.JERServed != 1 || m.PoolWrites != 1 || m.Pools != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Requests < 5 {
		t.Errorf("requests = %d, want ≥ 5", m.Requests)
	}
	if m.EngineEvaluations == 0 {
		t.Error("engine evaluations not surfaced")
	}
}

// TestConcurrentSelectsDuringPatches is the service-level linearizability
// check (run under -race): selections hammer a pool while a writer
// publishes new versions, and every response must be internally
// consistent with exactly one pool version — every returned juror carries
// that version's error rate, and the reported JER is the exact JER of the
// returned jury. A torn read (a selection spanning two versions) would
// mix rates across versions and fail the table check.
func TestConcurrentSelectsDuringPatches(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 4, MaxQueue: 1 << 20})
	base := testJurors(15)
	putPool(t, ts.URL, "crowd", base)

	const rounds = 60
	const selectors = 4

	// rateByVersion[v] is the full id→ε table of pool version v. The
	// single writer mutates one juror per patch, so every version's table
	// is known exactly.
	rateByVersion := make([]map[string]float64, rounds+2)
	table := make(map[string]float64, len(base))
	for _, j := range base {
		table[j.ID] = j.ErrorRate
	}
	clone := func(m map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	rateByVersion[1] = clone(table)
	// Precompute every patch so the writer goroutine shares nothing with
	// the checkers except the server.
	type patchStep struct {
		id   string
		rate float64
	}
	steps := make([]patchStep, rounds)
	for i := range steps {
		id := base[i%len(base)].ID
		rate := 0.05 + 0.9*math.Mod(float64(i)*0.618033988749895, 1)
		steps[i] = patchStep{id: id, rate: rate}
		table[id] = rate
		rateByVersion[i+2] = clone(table)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for _, st := range steps {
			rate := st.rate
			patch := PatchJurorsRequest{Updates: []JurorUpdateJSON{{ID: st.id, ErrorRate: &rate}}}
			if code := do(t, http.MethodPatch, ts.URL+"/v1/pools/crowd/jurors", patch, nil); code != http.StatusOK {
				t.Errorf("patch status %d", code)
				return
			}
		}
	}()
	for w := 0; w < selectors; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var resp SelectResponse
				code := do(t, http.MethodPost, ts.URL+"/v1/select", SelectRequest{Pool: "crowd"}, &resp)
				if code != http.StatusOK {
					t.Errorf("select status %d", code)
					return
				}
				v := resp.PoolVersion
				if v < 1 || int(v) >= len(rateByVersion) {
					t.Errorf("impossible pool version %d", v)
					return
				}
				want := rateByVersion[v]
				var rates []float64
				for _, j := range resp.Selection.Jurors {
					if wr, ok := want[j.ID]; !ok || wr != j.ErrorRate {
						t.Errorf("torn read: juror %s has ε=%g, version %d says %g",
							j.ID, j.ErrorRate, v, wr)
						return
					}
					rates = append(rates, j.ErrorRate)
				}
				exact, err := jury.JER(rates)
				if err != nil {
					t.Error(err)
					return
				}
				// The snapshot path evaluates via the incremental sweep,
				// whose rounding differs from a fresh evaluation only in
				// the last ulps; a torn read mixes rates differing by
				// ~0.01–0.9, far above this tolerance.
				if math.Abs(exact-resp.Selection.JER) > 1e-12 {
					t.Errorf("reported JER %g is not the exact JER %g of the returned jury",
						resp.Selection.JER, exact)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRequestBodyTooLargeIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := JERRequest{ErrorRates: make([]float64, MaxBodyBytes/len("0.25,")+1)}
	for i := range big.ErrorRates {
		big.ErrorRates[i] = 0.25
	}
	var errResp errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/jer", big, &errResp); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%s)", code, errResp.Error)
	}
	if want := fmt.Sprintf("%d-byte limit", MaxBodyBytes); !strings.Contains(errResp.Error, want) {
		t.Errorf("error does not mention the limit: %q", errResp.Error)
	}
}

// TestRequestBodyTrailingData checks that only whitespace may follow a
// request's JSON value, on the one-pass PUT decoder and the shared
// decoder alike: trailing data answers 400 and changes nothing, while
// the newline json.Encoder writes stays accepted.
func TestRequestBodyTrailingData(t *testing.T) {
	hs := newTaskServer(t, 25)
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks", TaskCreateRequest{Pool: "crowd"}, http.StatusCreated, &created)
	task := hs.URL + "/v1/tasks/" + created.Task.ID
	cases := []struct {
		name, method, url, body string
		ok                      int
	}{
		{"put", http.MethodPut, hs.URL + "/v1/pools/p/jurors", `{"jurors":[{"id":"a","error_rate":0.2}]}`, http.StatusOK},
		{"put fallback", http.MethodPut, hs.URL + "/v1/pools/q/jurors", `{"jurors":[{"ID":"a","error_rate":0.2}]}`, http.StatusOK},
		{"select", http.MethodPost, hs.URL + "/v1/select", `{"pool":"crowd"}`, http.StatusOK},
		{"task create", http.MethodPost, hs.URL + "/v1/tasks", `{"pool":"crowd"}`, http.StatusCreated},
		{"vote", http.MethodPost, task + "/votes", `{"juror_id":"` + created.Task.Jurors[0].ID + `","vote":true}`, http.StatusOK},
	}
	send := func(method, url, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		return resp.StatusCode, e.Error
	}
	for _, tc := range cases {
		for _, tail := range []string{" garbage", "{}", "\n}", "\x00"} {
			code, msg := send(tc.method, tc.url, tc.body+tail)
			if code != http.StatusBadRequest || !strings.HasPrefix(msg, "decoding request body: ") {
				t.Errorf("%s with trailing %q: status %d %q, want 400 decoding request body", tc.name, tail, code, msg)
			}
		}
		if code, msg := send(tc.method, tc.url, tc.body+" \t\r\n"); code != tc.ok {
			t.Errorf("%s with trailing whitespace: status %d %q, want %d", tc.name, code, msg, tc.ok)
		}
	}
	// The rejected writes changed nothing: each pool is at version 1, the
	// one create is the second task, and the juror's vote counted once.
	for _, name := range []string{"p", "q"} {
		var p PoolResponse
		if code := do(t, http.MethodGet, hs.URL+"/v1/pools/"+name, nil, &p); code != http.StatusOK || p.Version != 1 {
			t.Errorf("pool %s: status %d version %d, want 200 version 1", name, code, p.Version)
		}
	}
	var list TaskListResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks", nil, http.StatusOK, &list)
	if len(list.Tasks) != 2 {
		t.Errorf("%d tasks, want 2", len(list.Tasks))
	}
	var got TaskResponse
	doTaskJSON(t, http.MethodGet, task, nil, http.StatusOK, &got)
	if got.Task.VotesSpent != 1 {
		t.Errorf("votes spent %d, want 1", got.Task.VotesSpent)
	}
}

// TestPoolWriteStoreFailureIs500 checks that a PUT or PATCH the journal
// fails answers 500, as DELETE does: the store failed, not the request,
// so it counts in errors_5xx. Input the pool store rejects still answers
// 400 with its text.
func TestPoolWriteStoreFailureIs500(t *testing.T) {
	store, err := tasks.Open(tasks.Config{Dir: t.TempDir(), Sync: tasks.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Tasks: store})
	url := hs.URL + "/v1/pools/crowd/jurors"
	putPool(t, hs.URL, "crowd", testJurors(5))
	dup := PutJurorsRequest{Jurors: []dataio.JurorJSON{{ID: "a", ErrorRate: 0.2}, {ID: "a", ErrorRate: 0.3}}}
	var e errorResponse
	if code := do(t, http.MethodPut, url, dup, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "duplicate juror id") {
		t.Fatalf("duplicate IDs: status %d %q, want 400 naming the duplicate", code, e.Error)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, url string
		body        any
	}{
		{http.MethodPut, url, PutJurorsRequest{Jurors: []dataio.JurorJSON{{ID: "a", ErrorRate: 0.2}}}},
		{http.MethodPatch, url, PatchJurorsRequest{Updates: []JurorUpdateJSON{{ID: "j000", ErrorRate: f64(0.3)}}}},
		{http.MethodDelete, hs.URL + "/v1/pools/crowd", nil},
	} {
		var e errorResponse
		if code := do(t, tc.method, tc.url, tc.body, &e); code != http.StatusInternalServerError || !strings.Contains(e.Error, "store failed") {
			t.Errorf("%s on a closed store: status %d %q, want 500 store failed", tc.method, code, e.Error)
		}
	}
	var m struct {
		Errors4xx int64 `json:"errors_4xx"`
		Errors5xx int64 `json:"errors_5xx"`
	}
	if code := do(t, http.MethodGet, hs.URL+"/metrics", nil, &m); code != http.StatusOK || m.Errors4xx != 1 || m.Errors5xx != 3 {
		t.Errorf("metrics status %d: errors_4xx %d errors_5xx %d, want 1 and 3", code, m.Errors4xx, m.Errors5xx)
	}
}

// BenchmarkPoolPut measures PUT /v1/pools/{name}/jurors of 1,001 jurors
// drawn as perfbench draws its pools, through the handler on a
// memory-only store without TCP: read, decode, validation, the ε sort
// and the acknowledgement.
func BenchmarkPoolPut(b *testing.B) {
	h := New(Config{}).Handler()
	body, err := json.Marshal(PutJurorsRequest{Jurors: crowdJurors(1001, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPut, "/v1/pools/crowd/jurors", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

func BenchmarkServerSelect(b *testing.B) {
	_, ts := newTestServer(b, Config{})
	putPool(b, ts.URL, "crowd", testJurors(101))
	body, err := json.Marshal(SelectRequest{Pool: "crowd"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

func BenchmarkServerJER(b *testing.B) {
	_, ts := newTestServer(b, Config{})
	rates := make([]float64, 101)
	for i := range rates {
		rates[i] = 0.1 + 0.5*float64(i)/101
	}
	body, err := json.Marshal(JERRequest{ErrorRates: rates})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
