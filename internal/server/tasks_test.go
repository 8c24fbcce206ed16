package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"juryselect/internal/dataio"
	"juryselect/internal/tasks"
)

// jurorJSONFor builds one wire-form juror.
func jurorJSONFor(id string, rate, cost float64) dataio.JurorJSON {
	return dataio.JurorJSON{ID: id, ErrorRate: rate, Cost: cost}
}

// newTaskServer builds a server fronting a memory-only task store with a
// seeded pool.
func newTaskServer(t *testing.T, n int) *httptest.Server {
	t.Helper()
	ts, err := tasks.Open(tasks.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Tasks: ts})
	if _, err := ts.PutPool("crowd", testJurors(n)); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func doTaskJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTaskLifecycleOverHTTP drives create → votes → early-stop verdict
// through the wire protocol.
func TestTaskLifecycleOverHTTP(t *testing.T) {
	hs := newTaskServer(t, 25)

	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks", TaskCreateRequest{
		Pool: "crowd", Question: "is the rumor true?", TargetConfidence: 0.95,
	}, http.StatusCreated, &created)
	task := created.Task
	if task.Status != tasks.StatusOpen || len(task.Jurors) == 0 || task.PoolVersion != 1 {
		t.Fatalf("created task = %+v", task)
	}

	// Unanimous yes votes early-stop before the jury is exhausted.
	var last TaskResponse
	votes := 0
	yes := true
	for _, j := range task.Jurors {
		doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+task.ID+"/votes",
			TaskVoteRequest{JurorID: j.ID, Vote: &yes}, http.StatusOK, &last)
		votes++
		if last.Task.Status == tasks.StatusDecided {
			break
		}
	}
	if last.Task.Status != tasks.StatusDecided || last.Task.Verdict == nil {
		t.Fatalf("task never decided: %+v", last.Task)
	}
	if !last.Task.Verdict.Answer || !last.Task.Verdict.EarlyStopped {
		t.Fatalf("verdict = %+v", last.Task.Verdict)
	}
	if votes >= len(task.Jurors) {
		t.Fatalf("early stop never fired: %d votes for a %d-jury", votes, len(task.Jurors))
	}

	// GET reflects the decided state; list filters by status.
	var got TaskResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks/"+task.ID, nil, http.StatusOK, &got)
	if got.Task.Status != tasks.StatusDecided || got.Task.VotesSpent != votes {
		t.Fatalf("GET after verdict = %+v", got.Task)
	}
	var list TaskListResponse
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks?status=decided", nil, http.StatusOK, &list)
	if len(list.Tasks) != 1 || list.Tasks[0].ID != task.ID {
		t.Fatalf("decided list = %+v", list.Tasks)
	}

	// /metrics exposes the lifecycle gauges and vote counters.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Tasks *struct {
			Decided  int   `json:"decided"`
			Creates  int64 `json:"creates"`
			Votes    int64 `json:"votes"`
			Verdicts int64 `json:"verdicts"`
		} `json:"tasks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Tasks == nil {
		t.Fatal("metrics missing task block")
	}
	if m.Tasks.Decided != 1 || m.Tasks.Creates != 1 || m.Tasks.Votes != int64(votes) || m.Tasks.Verdicts != 1 {
		t.Fatalf("task metrics = %+v", m.Tasks)
	}
}

// TestTaskDeclineInvitesReplacementOverHTTP: a decline releases the
// juror and the response already carries the replacement invitation.
func TestTaskDeclineInvitesReplacementOverHTTP(t *testing.T) {
	hs := newTaskServer(t, 25)
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks", TaskCreateRequest{Pool: "crowd"},
		http.StatusCreated, &created)
	task := created.Task

	var after TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+task.ID+"/votes",
		TaskVoteRequest{JurorID: task.Jurors[0].ID, Decline: true}, http.StatusOK, &after)
	if len(after.Task.Jurors) != len(task.Jurors)+1 {
		t.Fatalf("no replacement: %d jurors", len(after.Task.Jurors))
	}
	if after.Task.Jurors[0].State != tasks.JurorDeclined {
		t.Fatalf("declined juror state %q", after.Task.Jurors[0].State)
	}
	if after.Task.Declines != 1 {
		t.Fatalf("declines = %d", after.Task.Declines)
	}
}

// TestTaskEndpointErrors maps lifecycle failures onto HTTP statuses.
func TestTaskEndpointErrors(t *testing.T) {
	hs := newTaskServer(t, 9)
	yes := true

	// Unknown pool and invalid parameters are 400s; unknown task is 404.
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		TaskCreateRequest{Pool: ""}, http.StatusBadRequest, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		TaskCreateRequest{Pool: "crowd", TargetConfidence: 0.3}, http.StatusBadRequest, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		TaskCreateRequest{Pool: "ghost"}, http.StatusNotFound, nil)
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks/ghost", nil, http.StatusNotFound, nil)
	doTaskJSON(t, http.MethodGet, hs.URL+"/v1/tasks?status=bogus", nil, http.StatusBadRequest, nil)

	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks", TaskCreateRequest{Pool: "crowd"},
		http.StatusCreated, &created)
	id := created.Task.ID
	votesURL := hs.URL + "/v1/tasks/" + id + "/votes"

	// Malformed vote bodies.
	doTaskJSON(t, http.MethodPost, votesURL, TaskVoteRequest{Vote: &yes}, http.StatusBadRequest, nil)
	doTaskJSON(t, http.MethodPost, votesURL, TaskVoteRequest{JurorID: "x"}, http.StatusBadRequest, nil)
	doTaskJSON(t, http.MethodPost, votesURL,
		TaskVoteRequest{JurorID: "x", Vote: &yes, Decline: true}, http.StatusBadRequest, nil)

	// Lifecycle conflicts.
	doTaskJSON(t, http.MethodPost, votesURL,
		TaskVoteRequest{JurorID: "stranger", Vote: &yes}, http.StatusBadRequest, nil)
	j0 := created.Task.Jurors[0].ID
	doTaskJSON(t, http.MethodPost, votesURL, TaskVoteRequest{JurorID: j0, Vote: &yes}, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPost, votesURL, TaskVoteRequest{JurorID: j0, Vote: &yes}, http.StatusConflict, nil)
}

// TestMillisecondFieldsDoNotWrap sends millisecond fields whose
// nanoseconds overflow int64. None may wrap into a short or negative
// duration: timeout_ms clamps to the server maximum, and the task and
// trace fields are 400s that name the field. 18446744073710 ms is
// 2^64 ns plus 448 µs, so a wrapping conversion reads it as 448 µs.
func TestMillisecondFieldsDoNotWrap(t *testing.T) {
	hs := newTaskServer(t, 9)
	const maxInt64, wraps, largest = "9223372036854775807", "18446744073710", "9223372036854"
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		field                    string        // named by a 400's message
		expiry                   time.Duration // a created task's expires_at − created_at
	}{
		{"select timeout clamps", http.MethodPost, "/v1/select",
			`{"pool":"crowd","timeout_ms":` + maxInt64 + `}`, http.StatusOK, "", 0},
		{"task timeout clamps", http.MethodPost, "/v1/tasks",
			`{"pool":"crowd","timeout_ms":` + maxInt64 + `}`, http.StatusCreated, "", 0},
		{"expiry wraps", http.MethodPost, "/v1/tasks",
			`{"pool":"crowd","expires_in_ms":` + wraps + `}`, http.StatusBadRequest, "expires_in_ms", 0},
		{"expiry at MaxInt64", http.MethodPost, "/v1/tasks",
			`{"pool":"crowd","expires_in_ms":` + maxInt64 + `}`, http.StatusBadRequest, "expires_in_ms", 0},
		{"juror timeout wraps", http.MethodPost, "/v1/tasks",
			`{"pool":"crowd","juror_timeout_ms":` + wraps + `}`, http.StatusBadRequest, "juror_timeout_ms", 0},
		{"largest expiry", http.MethodPost, "/v1/tasks",
			`{"pool":"crowd","expires_in_ms":` + largest + `}`, http.StatusCreated, "",
			time.Duration(9223372036854) * time.Millisecond},
		{"trace filter wraps", http.MethodGet, "/debug/traces?min_ms=" + maxInt64,
			"", http.StatusBadRequest, "min_ms", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if tc.field != "" && !strings.Contains(string(body), tc.field) {
				t.Errorf("error does not name %s: %s", tc.field, body)
			}
			if tc.expiry != 0 {
				var created TaskResponse
				if err := json.Unmarshal(body, &created); err != nil {
					t.Fatal(err)
				}
				if got := created.Task.ExpiresAt.Sub(created.Task.CreatedAt); got != tc.expiry {
					t.Errorf("expires_at - created_at = %v, want %v", got, tc.expiry)
				}
			}
		})
	}
}

// TestPoolWritesJournaledThroughTaskStore: with a durable task store
// behind the server, a pool PUT + PATCH sequence recovers across a
// simulated crash, versions intact.
func TestPoolWritesJournaledThroughTaskStore(t *testing.T) {
	dir := t.TempDir()
	open := func() (*tasks.Store, *httptest.Server) {
		ts, err := tasks.Open(tasks.Config{Dir: dir, Sync: tasks.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(New(Config{Tasks: ts}).Handler())
		return ts, hs
	}
	_, hs := open()
	put := PutJurorsRequest{}
	for i := 0; i < 6; i++ {
		put.Jurors = append(put.Jurors, jurorJSONFor(fmt.Sprintf("j%02d", i), 0.1+0.05*float64(i), 0.2))
	}
	doTaskJSON(t, http.MethodPut, hs.URL+"/v1/pools/crowd/jurors", put, http.StatusOK, nil)
	doTaskJSON(t, http.MethodPatch, hs.URL+"/v1/pools/crowd/jurors", PatchJurorsRequest{
		Updates: []JurorUpdateJSON{{ID: "j00", Votes: &VotesJSON{Wrong: 1, Total: 4}}},
	}, http.StatusOK, nil)
	hs.Close() // no task-store Close: simulated crash

	ts2, hs2 := open()
	defer hs2.Close()
	if ts2.Recovery().Records != 2 {
		t.Fatalf("replayed %d records, want 2", ts2.Recovery().Records)
	}
	var pr PoolResponse
	doTaskJSON(t, http.MethodGet, hs2.URL+"/v1/pools/crowd", nil, http.StatusOK, &pr)
	if pr.Version != 2 || pr.Size != 6 {
		t.Fatalf("recovered pool = %+v", pr)
	}
	for _, j := range pr.Jurors {
		if j.ID == "j00" && j.TotalVotes != 4 {
			t.Fatalf("recovered vote record = %+v", j)
		}
	}
}

// TestTaskMetricsExposeWritePathHealth asserts the PR 7 observability
// block: shard configuration and contention, the pipelined committer's
// queue depth and fsync batch-size histogram, and the last boot's replay
// duration all surface on /metrics.
func TestTaskMetricsExposeWritePathHealth(t *testing.T) {
	dir := t.TempDir()
	open := func() (*tasks.Store, *httptest.Server) {
		ts, err := tasks.Open(tasks.Config{Dir: dir, Sync: tasks.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(New(Config{Tasks: ts}).Handler())
		return ts, hs
	}
	st, hs := open()
	doTaskJSON(t, http.MethodPut, hs.URL+"/v1/pools/crowd/jurors", PutJurorsRequest{Jurors: []dataio.JurorJSON{
		jurorJSONFor("j00", 0.1, 0), jurorJSONFor("j01", 0.2, 0), jurorJSONFor("j02", 0.3, 0),
	}}, http.StatusOK, nil)
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks", TaskCreateRequest{Pool: "crowd"}, http.StatusCreated, &created)
	yes := true
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+created.Task.ID+"/votes",
		TaskVoteRequest{JurorID: created.Task.Jurors[0].ID, Vote: &yes}, http.StatusOK, nil)

	var m struct {
		Tasks *struct {
			Shards              int     `json:"shards"`
			ShardContention     int64   `json:"shard_contention"`
			WALFsyncs           int64   `json:"wal_fsyncs"`
			WALCommitQueueDepth int64   `json:"wal_commit_queue_depth"`
			WALFsyncBatchHist   []int64 `json:"wal_fsync_batch_hist"`
			WALReplayRecords    int64   `json:"wal_replay_records"`
			WALReplayNS         int64   `json:"wal_replay_ns"`
		} `json:"tasks"`
	}
	doTaskJSON(t, http.MethodGet, hs.URL+"/metrics", nil, http.StatusOK, &m)
	if m.Tasks == nil {
		t.Fatal("no tasks metrics block")
	}
	if m.Tasks.Shards == 0 {
		t.Errorf("shards = 0, want the store's shard count")
	}
	if m.Tasks.ShardContention < 0 {
		t.Errorf("shard_contention = %d", m.Tasks.ShardContention)
	}
	if len(m.Tasks.WALFsyncBatchHist) == 0 {
		t.Error("wal_fsync_batch_hist absent")
	}
	var fsyncsBucketed int64
	for _, n := range m.Tasks.WALFsyncBatchHist {
		fsyncsBucketed += n
	}
	if fsyncsBucketed == 0 || fsyncsBucketed != m.Tasks.WALFsyncs {
		t.Errorf("batch histogram sums to %d, want wal_fsyncs %d (>0)", fsyncsBucketed, m.Tasks.WALFsyncs)
	}
	if m.Tasks.WALCommitQueueDepth < 0 {
		t.Errorf("wal_commit_queue_depth = %d", m.Tasks.WALCommitQueueDepth)
	}
	hs.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A reboot replays the log; the recovery cost must surface.
	st2, hs2 := open()
	defer hs2.Close()
	defer st2.Close() //nolint:errcheck
	doTaskJSON(t, http.MethodGet, hs2.URL+"/metrics", nil, http.StatusOK, &m)
	if m.Tasks.WALReplayRecords == 0 {
		t.Fatal("reboot replayed nothing")
	}
	if m.Tasks.WALReplayNS <= 0 {
		t.Errorf("wal_replay_ns = %d, want > 0", m.Tasks.WALReplayNS)
	}
}
