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
	w, _, err := tasks.OpenWAL(path, tasks.WALOptions{Sync: tasks.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`{"t":"pool_delete","pool":"crowd"}`)); err != nil {
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

func TestRunFailsOnUnbindableAddr(t *testing.T) {
	err := run(context.Background(), config{
		addr:  "256.0.0.1:1",
		drain: time.Second,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)), nil, nil)
	if err == nil {
		t.Fatal("unbindable address accepted")
	}
}
