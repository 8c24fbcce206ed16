package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"juryselect/internal/lifecycle"
	"juryselect/internal/tasks"
)

const sampleCSV = `id,error_rate,cost
A,0.1,0.15
B,0.2,0.20
C,0.2,0.25
D,0.3,0.40
E,0.3,0.65
`

func writeSample(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadPool(t *testing.T) {
	csvPath := writeSample(t, "crowd.csv", sampleCSV)
	jsonPath := writeSample(t, "crowd.json", `[{"id":"A","error_rate":0.1}]`)

	store, err := tasks.Open(tasks.Config{})
	if err != nil {
		t.Fatal(err)
	}
	name, size, skipped, err := loadPool(store, "crowd="+csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if name != "crowd" || size != 5 || skipped {
		t.Fatalf("loaded %q/%d/%v, want crowd/5/false", name, size, skipped)
	}
	if _, _, _, err := loadPool(store, "tiny="+jsonPath); err != nil {
		t.Fatal(err)
	}
	if store.Pools().Len() != 2 {
		t.Fatalf("store holds %d pools", store.Pools().Len())
	}
	// A pool already in the store (e.g. recovered from the WAL) is not
	// overwritten by its preload file.
	if _, _, skipped, err := loadPool(store, "crowd="+jsonPath); err != nil || !skipped {
		t.Fatalf("re-load = skipped %v err %v, want skip", skipped, err)
	}
	if p, _ := store.Pools().Get("crowd"); p.Size() != 5 {
		t.Fatalf("preload overwrote the recovered pool: %d jurors", p.Size())
	}

	for _, bad := range []string{
		"no-equals",
		"=path.csv",
		"name=",
		"name=" + writeSample(t, "x.xml", "<jurors/>"),
		"name=/nonexistent/file.csv",
	} {
		if _, _, _, err := loadPool(store, bad); err == nil {
			t.Errorf("loadPool(%q) accepted", bad)
		}
	}
}

// TestRunServesAndDrainsCleanly boots the full binary path (run) on a
// kernel-picked port, exercises /healthz and /v1/select, then cancels
// the context — the SIGTERM path — and requires a clean drain.
func TestRunServesAndDrainsCleanly(t *testing.T) {
	csvPath := writeSample(t, "crowd.csv", sampleCSV)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var logBuf strings.Builder
	go func() {
		done <- run(ctx, config{
			addr:  "127.0.0.1:0",
			pools: poolFlags{"crowd=" + csvPath},
			drain: 5 * time.Second,
		}, slog.New(slog.NewTextHandler(&logBuf, nil)), ready, nil)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, logBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	sel, err := http.Post(base+"/v1/select", "application/json",
		bytes.NewReader([]byte(`{"pool":"crowd"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Body.Close()
	if sel.StatusCode != http.StatusOK {
		t.Fatalf("select status %d", sel.StatusCode)
	}
	var selResp struct {
		Selection struct {
			Size int     `json:"size"`
			JER  float64 `json:"jury_error_rate"`
		} `json:"selection"`
		PoolVersion uint64 `json:"pool_version"`
	}
	if err := json.NewDecoder(sel.Body).Decode(&selResp); err != nil {
		t.Fatal(err)
	}
	if selResp.Selection.Size%2 != 1 || selResp.PoolVersion != 1 {
		t.Fatalf("selection = %+v", selResp)
	}

	cancel() // the in-process SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v\n%s", err, logBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
	if !strings.Contains(logBuf.String(), "drained cleanly") {
		t.Errorf("log missing drain line:\n%s", logBuf.String())
	}
}

// TestDrainDelayKeepsHealthzObservable: with -drain-delay set, the 503
// draining signal is served on a still-open listener before shutdown —
// the window a load balancer needs to deregister the instance.
func TestDrainDelayKeepsHealthzObservable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{
			addr:       "127.0.0.1:0",
			drain:      5 * time.Second,
			drainDelay: 1500 * time.Millisecond,
		}, slog.New(slog.NewTextHandler(io.Discard, nil)), ready, nil)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	cancel() // SIGTERM: healthz must answer 503 during the delay window
	deadline := time.Now().Add(time.Second)
	saw503 := false
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			break // listener closed: window over
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !saw503 {
		t.Error("healthz never answered 503 on an open listener during the drain delay")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit")
	}
}

// TestRunTaskLifecycleSurvivesRestart boots juryd with a WAL, drives a
// task to a verdict plus a second task mid-vote, stops the server, and
// requires a restarted instance (same WAL dir, preload skipped) to serve
// byte-identical task and pool state.
func TestRunTaskLifecycleSurvivesRestart(t *testing.T) {
	csvPath := writeSample(t, "crowd.csv", sampleCSV)
	walDir := filepath.Join(t.TempDir(), "wal")

	boot := func() (addr string, cancel context.CancelFunc, done chan error) {
		ctx, stop := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done = make(chan error, 1)
		go func() {
			done <- run(ctx, config{
				addr:   "127.0.0.1:0",
				pools:  poolFlags{"crowd=" + csvPath},
				drain:  5 * time.Second,
				walDir: walDir,
				fsync:  "always",
				sweep:  0, // deterministic: no wall-clock sweeps mid-test
			}, slog.New(slog.NewTextHandler(io.Discard, nil)), ready, nil)
		}()
		select {
		case addr = <-ready:
		case err := <-done:
			t.Fatalf("server exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
		return addr, stop, done
	}
	postJSON := func(base, path, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, raw)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	getBody := func(base, path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, raw)
		}
		return string(raw)
	}

	addr, stop, done := boot()
	base := "http://" + addr
	created := postJSON(base, "/v1/tasks", `{"pool":"crowd","question":"q1","target_confidence":0.95}`)
	task1 := created["task"].(map[string]any)
	id1 := task1["id"].(string)
	for _, j := range task1["jurors"].([]any) {
		jid := j.(map[string]any)["id"].(string)
		out := postJSON(base, "/v1/tasks/"+id1+"/votes",
			`{"juror_id":"`+jid+`","vote":true}`)
		if out["task"].(map[string]any)["status"] == "decided" {
			break
		}
	}
	// A high target keeps this task open across the restart (a single
	// reliable juror's vote already reaches 0.9).
	created2 := postJSON(base, "/v1/tasks", `{"pool":"crowd","target_confidence":0.995}`)
	task2 := created2["task"].(map[string]any)
	id2 := task2["id"].(string)
	j0 := task2["jurors"].([]any)[0].(map[string]any)["id"].(string)
	postJSON(base, "/v1/tasks/"+id2+"/votes", `{"juror_id":"`+j0+`","vote":false}`)

	beforeTasks := getBody(base, "/v1/tasks")
	beforePool := getBody(base, "/v1/pools/crowd")
	stop()
	if err := <-done; err != nil {
		t.Fatalf("first instance failed: %v", err)
	}

	addr2, stop2, done2 := boot()
	defer func() {
		stop2()
		<-done2
	}()
	base2 := "http://" + addr2
	if got := getBody(base2, "/v1/tasks"); got != beforeTasks {
		t.Fatalf("recovered tasks diverge:\n%s\nvs\n%s", got, beforeTasks)
	}
	if got := getBody(base2, "/v1/pools/crowd"); got != beforePool {
		t.Fatalf("recovered pool diverges:\n%s\nvs\n%s", got, beforePool)
	}
	// The recovered open task keeps accepting votes.
	j1 := task2["jurors"].([]any)[1].(map[string]any)["id"].(string)
	out := postJSON(base2, "/v1/tasks/"+id2+"/votes", `{"juror_id":"`+j1+`","vote":false}`)
	if spent := out["task"].(map[string]any)["votes_spent"].(float64); spent != 2 {
		t.Fatalf("votes_spent after recovery = %g, want 2", spent)
	}
}

func TestRunFailsOnBadPoolFlag(t *testing.T) {
	err := run(context.Background(), config{
		addr:  "127.0.0.1:0",
		pools: poolFlags{"broken"},
		drain: time.Second,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)), nil, nil)
	if err == nil {
		t.Fatal("bad -pool accepted")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error does not name the flag: %v", err)
	}
}

// TestRunRefusesPreV2WAL points juryd at a WAL holding a record in the
// pre-v2 JSON framing: run must fail before serving, with an error that
// names the log file and the format (main logs it and exits 1).
func TestRunRefusesPreV2WAL(t *testing.T) {
	walDir := t.TempDir()
	path := filepath.Join(walDir, "wal-000000.log") // the first epoch's log
	w, err := tasks.OpenWAL(path, tasks.WALOptions{Sync: tasks.SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendAsync([]byte(`{"t":"pool_delete","pool":"crowd"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	err = run(context.Background(), config{
		addr:   "127.0.0.1:0",
		walDir: walDir,
		fsync:  "batch",
		drain:  time.Second,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)), ready, nil)
	if !errors.Is(err, tasks.ErrPreV2WAL) {
		t.Fatalf("run = %v, want tasks.ErrPreV2WAL", err)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "pre-v2") {
		t.Errorf("error %q does not name the log file and the pre-v2 format", err)
	}
	if len(ready) != 0 {
		t.Error("juryd started serving on a log it cannot replay")
	}
}

// TestRunRefusesV1Snapshot points juryd at a directory holding a v1
// JSON compaction snapshot: run must fail before serving, with an error
// that names the snapshot file (main logs it and exits 1), and leave the
// directory as it found it.
func TestRunRefusesV1Snapshot(t *testing.T) {
	walDir := t.TempDir()
	path := filepath.Join(walDir, "snapshot.json")
	doc := []byte(`{"schema":"juryselect-taskwal/v1","epoch":1,"pools":{"pools":[]},"tasks":null,"next_task":0}`)
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	err := run(context.Background(), config{
		addr:   "127.0.0.1:0",
		walDir: walDir,
		fsync:  "batch",
		drain:  time.Second,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)), ready, nil)
	if !errors.Is(err, tasks.ErrV1Snapshot) {
		t.Fatalf("run = %v, want tasks.ErrV1Snapshot", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the snapshot file", err)
	}
	if len(ready) != 0 {
		t.Error("juryd started serving beside a snapshot it cannot load")
	}
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("refused boot left %d files in the WAL directory, want only the v1 snapshot", len(entries))
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, doc) {
		t.Errorf("refused boot changed the v1 snapshot (err %v)", err)
	}
}

func TestRunFailsOnUnbindableAddr(t *testing.T) {
	err := run(context.Background(), config{
		addr:  "256.0.0.1:1",
		drain: time.Second,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)), nil, nil)
	if err == nil {
		t.Fatal("unbindable address accepted")
	}
}

// startRun boots run with cfg on a kernel-picked port and returns its
// base URL. The test's cleanup cancels it (the in-process SIGTERM) and
// requires a clean drain.
func startRun(t *testing.T, cfg config) string {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, cfg, slog.New(slog.NewTextHandler(io.Discard, nil)), ready, nil)
	}()
	select {
	case addr := <-ready:
		t.Cleanup(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("drain failed: %v", err)
			}
		})
		return "http://" + addr
	case err := <-done:
		cancel()
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	return ""
}

// call sends one request with a JSON body (none when body is empty),
// requires a 200 or 201, and decodes the response into out.
func call(t *testing.T, method, url, body string, out any) {
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
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("%s %s: %v: %s", method, url, err, raw)
	}
}

// objective returns the named objective of an SLO snapshot.
func objective(t *testing.T, snap lifecycle.SLOSnapshot, name string) lifecycle.ObjectiveStatus {
	t.Helper()
	for _, o := range snap.Objectives {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("no objective %q in %+v", name, snap.Objectives)
	return lifecycle.ObjectiveStatus{}
}

// TestRunServesEveryView boots run from the config the other run tests
// use, plus a verdict-latency threshold, and decides one task. Every
// derived view must have seen the verdict: insight and lifecycle count
// it, the task's timeline is served, and both objectives fed by
// verdicts count it.
func TestRunServesEveryView(t *testing.T) {
	base := startRun(t, config{
		pools:            poolFlags{"crowd=" + writeSample(t, "crowd.csv", sampleCSV)},
		drain:            5 * time.Second,
		verdictThreshold: time.Minute,
	})
	var created struct {
		Task tasks.View `json:"task"`
	}
	call(t, http.MethodPost, base+"/v1/tasks", `{"pool":"crowd"}`, &created)
	id := created.Task.ID
	for _, j := range created.Task.Jurors {
		var out struct {
			Task tasks.View `json:"task"`
		}
		call(t, http.MethodPost, base+"/v1/tasks/"+id+"/votes", `{"juror_id":"`+j.ID+`","vote":true}`, &out)
		if out.Task.Status == tasks.StatusDecided {
			break
		}
	}

	for _, path := range []string{"/v1/insight/calibration", "/v1/lifecycle"} {
		var view struct {
			TasksDecided int64 `json:"tasks_decided"`
		}
		call(t, http.MethodGet, base+path, "", &view)
		if view.TasksDecided != 1 {
			t.Errorf("%s: tasks_decided = %d, want 1", path, view.TasksDecided)
		}
	}
	var tl lifecycle.Timeline
	call(t, http.MethodGet, base+"/v1/tasks/"+id+"/timeline", "", &tl)
	if tl.Task != id || tl.Outcome != "decided" {
		t.Errorf("timeline = %s/%s, want %s/decided", tl.Task, tl.Outcome, id)
	}
	var snap lifecycle.SLOSnapshot
	call(t, http.MethodGet, base+"/v1/slo", "", &snap)
	for _, name := range []string{"verdict-latency", "task-expiry"} {
		if o := objective(t, snap, name); o.Good != 1 || o.Bad != 0 {
			t.Errorf("%s: good=%d bad=%d, want the one verdict counted good", name, o.Good, o.Bad)
		}
	}
}

// TestRunSLOEvalZeroPollsOnScrape: with -slo-eval 0 no evaluation ticker
// runs, so each read must poll the HTTP counters itself. /v1/slo counts
// five selects good under http-availability; the /metrics scrape that
// follows counts the /v1/slo read as a sixth, and the ops scrape not at
// all.
func TestRunSLOEvalZeroPollsOnScrape(t *testing.T) {
	base := startRun(t, config{
		pools: poolFlags{"crowd=" + writeSample(t, "crowd.csv", sampleCSV)},
		drain: 5 * time.Second,
	})
	for i := 0; i < 5; i++ {
		var sel map[string]any
		call(t, http.MethodPost, base+"/v1/select", `{"pool":"crowd"}`, &sel)
	}
	var snap lifecycle.SLOSnapshot
	call(t, http.MethodGet, base+"/v1/slo", "", &snap)
	if o := objective(t, snap, "http-availability"); o.Good != 5 || o.Bad != 0 {
		t.Errorf("/v1/slo: http-availability good=%d bad=%d, want 5/0", o.Good, o.Bad)
	}
	var m struct {
		SLO lifecycle.SLOSnapshot `json:"slo"`
	}
	call(t, http.MethodGet, base+"/metrics", "", &m)
	if o := objective(t, m.SLO, "http-availability"); o.Good != 6 || o.Bad != 0 {
		t.Errorf("/metrics: http-availability good=%d bad=%d, want 6/0", o.Good, o.Bad)
	}
}
