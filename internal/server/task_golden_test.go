package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"juryselect/internal/tasks"
)

// TestTaskBytesGolden pins every byte a task is served and stored as,
// on a fixed clock and a seeded stream of altr and pay tasks: the answer
// to every create, vote, decline and batch vote (rejected ballots
// included); every GET /v1/tasks/{id} and GET /v1/tasks under each
// status filter, after sweeps that time jurors out and after one that
// expires every open task; every frame of each WAL epoch and of the
// snapshot.bin a compaction writes. Reopening on the WAL, and on the
// snapshot, must serve the same GET bodies, and tasks restored from the
// snapshot keep inviting replacements from their pinned views.
// Regenerate with go test ./internal/server -run TestTaskBytesGolden
// -update, and only for a change that means to alter these bytes.
func TestTaskBytesGolden(t *testing.T) {
	g := &goldenStream{
		t:   t,
		dir: t.TempDir(),
		now: time.Date(2026, 5, 3, 8, 0, 0, 0, time.UTC),
		rng: rand.New(rand.NewSource(24)),
	}
	var out bytes.Buffer
	st, ins, lce := g.open()
	srv := New(Config{Tasks: st, Insight: ins, Lifecycle: lce})
	send := func(method, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if body != "" {
			fmt.Fprintf(&out, "== %s %s %s\n", method, path, body)
		} else {
			fmt.Fprintf(&out, "== %s %s\n", method, path)
		}
		fmt.Fprintf(&out, "%d %s", rec.Code, rec.Body.Bytes())
		return rec.Body.Bytes()
	}
	view := func(id string) tasks.View {
		t.Helper()
		v, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if _, err := st.PutPool("panel", flatJurors(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutPool("crowd", testJurors(10)); err != nil {
		t.Fatal(err)
	}

	// answer gives each juror invited to the task one chance: a vote, a
	// decline, no answer (left for a sweep), or a batch with the next
	// invited jurors that ends with a ballot the task rejects. Now and
	// then a ballot the task must refuse follows.
	answer := func(id string) {
		t.Helper()
		asked := map[string]bool{}
		truth := g.rng.Intn(2) == 0
		ballot := func(j tasks.JurorView) string {
			asked[j.ID] = true
			vote := truth
			if g.rng.Float64() < j.ErrorRate {
				vote = !vote
			}
			return fmt.Sprintf(`{"juror_id":%q,"vote":%t}`, j.ID, vote)
		}
		for {
			v := view(id)
			if v.Status != tasks.StatusOpen && v.Status != tasks.StatusAwaitingVotes {
				return
			}
			var invited []tasks.JurorView
			for _, j := range v.Jurors {
				if j.State == tasks.JurorInvited && !asked[j.ID] {
					invited = append(invited, j)
				}
			}
			if len(invited) == 0 {
				return
			}
			next := invited[0]
			g.advance(time.Duration(1+g.rng.Intn(20000)) * time.Millisecond)
			votes := "/v1/tasks/" + id + "/votes"
			switch r := g.rng.Float64(); {
			case r < 0.15:
				asked[next.ID] = true
				send(http.MethodPost, votes, fmt.Sprintf(`{"juror_id":%q,"decline":true}`, next.ID))
			case r < 0.25:
				asked[next.ID] = true
			case r < 0.45:
				items := []string{}
				for _, j := range invited[:min(len(invited), 3)] {
					items = append(items, ballot(j))
				}
				items = append(items, fmt.Sprintf(`{"juror_id":%q,"vote":true}`, next.ID), `{"juror_id":"ghost","decline":true}`)
				send(http.MethodPost, votes+"/batch", `{"votes":[`+strings.Join(items, ",")+`]}`)
			default:
				body := ballot(next)
				send(http.MethodPost, votes, body)
				if g.rng.Intn(6) == 0 {
					send(http.MethodPost, votes, body) // already voted, or closed
				}
			}
		}
	}
	// open posts a task and leaves it unanswered.
	open := func(body string) string {
		t.Helper()
		g.advance(time.Duration(g.rng.Intn(3000)) * time.Millisecond)
		var resp TaskResponse
		if err := json.Unmarshal(send(http.MethodPost, "/v1/tasks", body), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Task.ID
	}
	const payTask = `{"pool":"crowd","strategy":"pay","budget":1.2,"target_confidence":0.999}`
	create := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			body := `{"pool":"panel","question":"q?","target_confidence":1}`
			switch g.rng.Intn(4) {
			case 0:
				body = `{"pool":"panel","target_confidence":0.9,"max_invites":5}`
			case 1, 2:
				body = payTask
			}
			answer(open(body))
		}
	}
	// decline declines the task's first invited juror.
	decline := func(id string) {
		t.Helper()
		for _, j := range view(id).Jurors {
			if j.State == tasks.JurorInvited {
				g.advance(time.Second)
				send(http.MethodPost, "/v1/tasks/"+id+"/votes", fmt.Sprintf(`{"juror_id":%q,"decline":true}`, j.ID))
				return
			}
		}
		t.Fatalf("task %s has no invited juror", id)
	}
	answerOpen := func() {
		for _, v := range st.List("") {
			answer(v.ID)
		}
	}
	// bodies serves every task GET: the list under each filter, then
	// each task.
	bodies := func() string {
		var b bytes.Buffer
		for _, q := range []string{"", "?status=open", "?status=awaiting_votes", "?status=decided", "?status=expired"} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tasks"+q, nil))
			fmt.Fprintf(&b, "== GET /v1/tasks%s\n%d %s", q, rec.Code, rec.Body.Bytes())
		}
		for _, v := range st.List("") {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tasks/"+v.ID, nil))
			fmt.Fprintf(&b, "== GET /v1/tasks/%s\n%d %s", v.ID, rec.Code, rec.Body.Bytes())
		}
		return b.String()
	}
	// reopen closes the store, dumps the named log or snapshot, reopens
	// and requires the GET bodies the closed store served.
	reopen := func(name string, compact bool) {
		t.Helper()
		live := bodies()
		if compact {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		dumpFrames(t, &out, g.dir, name)
		st, ins, lce = g.open()
		srv = New(Config{Tasks: st, Insight: ins, Lifecycle: lce})
		if compact && !st.Recovery().SnapshotLoaded {
			t.Fatal("reopen did not load the compaction snapshot")
		}
		if got := bodies(); got != live {
			t.Fatalf("tasks reopened on %s differ from the live ones:\n%s\n%s", name, got, live)
		}
		fmt.Fprintf(&out, "== reopened on %s: every GET body above served again unchanged\n", name)
	}

	create(6)
	g.sweep(st, 2*time.Minute)
	answerOpen()
	out.WriteString(bodies())
	// Two pay tasks stay open across the compaction: the first pins a
	// view of the crowd the PATCH supersedes, the second the live one.
	pinsOld := open(payTask)
	send(http.MethodPatch, "/v1/pools/crowd/jurors", `{"updates":[{"id":"j000","remove":true},{"id":"n00","error_rate":0.06,"cost":0.1}]}`)
	create(4)
	pinsLive := open(payTask)
	reopen("wal-000000.log", false)
	reopen("snapshot.bin", true)

	// Tasks restored from the snapshot take votes, declines and timeouts,
	// and invite replacements from their pinned views.
	decline(pinsOld)
	decline(pinsLive)
	answerOpen()
	create(3)
	g.sweep(st, 2*time.Minute)
	answerOpen()
	open(payTask)
	open(`{"pool":"panel"}`)
	g.sweep(st, 2*time.Hour)
	out.WriteString(bodies())
	reopen("wal-000001.log", false)
	defer st.Close()

	// The stream must reach every path a task's bytes depend on.
	var replaced, timedOut, declined, early, expired, decided bool
	for _, v := range st.List("") {
		declined = declined || v.Declines > 0
		early = early || v.Verdict != nil && v.Verdict.EarlyStopped
		expired = expired || v.Status == tasks.StatusExpired
		decided = decided || v.Status == tasks.StatusDecided
		for _, j := range v.Jurors {
			replaced = replaced || !j.InvitedAt.Equal(v.CreatedAt)
			timedOut = timedOut || j.State == tasks.JurorTimedOut
		}
	}
	restored := lce.Stats().UnknownTaskEvents > 0
	if !replaced || !timedOut || !declined || !early || !expired || !decided || !restored ||
		!strings.Contains(out.String(), `"skipped":true`) || !strings.Contains(out.String(), "409") {
		t.Fatalf("stream misses a path: replaced %v timed out %v declined %v early %v expired %v decided %v restored %v",
			replaced, timedOut, declined, early, expired, decided, restored)
	}

	golden := filepath.Join("testdata", "task_bytes.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var a, b string
			if i < len(got) {
				a = got[i]
			}
			if i < len(exp) {
				b = exp[i]
			}
			if a != b {
				t.Fatalf("task bytes differ from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, a, b)
			}
		}
	}
}
