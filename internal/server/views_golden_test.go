package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"juryselect/internal/insight"
	"juryselect/internal/lifecycle"
	"juryselect/internal/tasks"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenStream drives a seeded task stream through a store on a fixed
// clock: mixed altr and pay tasks, votes, declines and unanswered
// invitations, sweeps that time jurors out and one that expires every
// open task, and a compaction followed by a reopen, so the reopened
// sinks see events for tasks they never saw open.
type goldenStream struct {
	t   *testing.T
	dir string
	now time.Time
	rng *rand.Rand
}

// Small caps so the stream drops pairs and evicts timelines.
const (
	goldenPairCap     = 24
	goldenTimelineCap = 10
)

func (g *goldenStream) clock() time.Time { return g.now }

func (g *goldenStream) advance(d time.Duration) { g.now = g.now.Add(d) }

// open opens the store over g.dir with fresh sinks attached before
// recovery.
func (g *goldenStream) open() (*tasks.Store, *insight.Engine, *lifecycle.Engine) {
	g.t.Helper()
	ins, lce := insight.New(goldenPairCap), lifecycle.New(goldenTimelineCap)
	st, err := tasks.Open(tasks.Config{
		Dir: g.dir, Sync: tasks.SyncOff, Now: g.clock, CompactEvery: -1,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour,
		Events: tasks.Sinks(ins, lce),
	})
	if err != nil {
		g.t.Fatal(err)
	}
	return st, ins, lce
}

// create opens n tasks, answering each invitation with a vote, a
// decline, or nothing (left for a sweep to time out).
func (g *goldenStream) create(st *tasks.Store, n int) {
	g.t.Helper()
	for i := 0; i < n; i++ {
		spec := tasks.Spec{Pool: "panel", TargetConfidence: 1}
		switch g.rng.Intn(3) {
		case 0:
			spec.TargetConfidence = 0.9
		case 1:
			spec = tasks.Spec{Pool: "crowd", Strategy: "pay", Budget: 2}
		}
		g.advance(time.Duration(g.rng.Intn(3000)) * time.Millisecond)
		v, err := st.Create(context.Background(), spec)
		if err != nil {
			g.t.Fatal(err)
		}
		g.answer(st, v.ID)
	}
}

// answer gives every juror currently invited to the task one chance to
// vote or decline; replacements invited meanwhile get theirs too.
func (g *goldenStream) answer(st *tasks.Store, id string) {
	g.t.Helper()
	ctx := context.Background()
	asked := map[string]bool{}
	truth := g.rng.Intn(2) == 0
	for {
		v, err := st.Get(id)
		if err != nil {
			g.t.Fatal(err)
		}
		if v.Status != tasks.StatusOpen && v.Status != tasks.StatusAwaitingVotes {
			return
		}
		var next *tasks.JurorView
		for i := range v.Jurors {
			if v.Jurors[i].State == tasks.JurorInvited && !asked[v.Jurors[i].ID] {
				next = &v.Jurors[i]
				break
			}
		}
		if next == nil {
			return
		}
		asked[next.ID] = true
		g.advance(time.Duration(1+g.rng.Intn(20000)) * time.Millisecond)
		switch r := g.rng.Float64(); {
		case r < 0.15:
			_, err = st.Decline(ctx, id, next.ID)
		case r < 0.3:
			// Unanswered: a later sweep times the juror out.
		default:
			vote := truth
			if g.rng.Float64() < next.ErrorRate {
				vote = !vote
			}
			_, err = st.Vote(ctx, id, next.ID, vote)
		}
		if err != nil {
			g.t.Fatal(err)
		}
	}
}

// answerOpen gives every open task's invited jurors one more chance.
func (g *goldenStream) answerOpen(st *tasks.Store) {
	for _, v := range st.List("") {
		g.answer(st, v.ID)
	}
}

// sweep advances the clock by d and sweeps.
func (g *goldenStream) sweep(st *tasks.Store, d time.Duration) {
	g.t.Helper()
	g.advance(d)
	if _, _, err := st.Sweep(g.now); err != nil {
		g.t.Fatal(err)
	}
}

// TestDerivedViewsGolden pins every byte the derived views serve for a
// fixed-clock, seeded stream: the three /v1/insight bodies, /v1/lifecycle,
// each task's timeline, the insight and lifecycle blocks of /metrics,
// their juryd_insight_* and juryd_lifecycle_* Prometheus series, and the
// 404 each view route answers on a server without views. Regenerate with
// go test ./internal/server -run TestDerivedViewsGolden -update, and only
// for a change that means to alter what the views serve.
func TestDerivedViewsGolden(t *testing.T) {
	g := &goldenStream{
		t:   t,
		dir: t.TempDir(),
		now: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC),
		rng: rand.New(rand.NewSource(21)),
	}
	st, _, _ := g.open()
	if _, err := st.PutPool("panel", flatJurors(14)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutPool("crowd", testJurors(12)); err != nil {
		t.Fatal(err)
	}
	g.create(st, 14)
	g.sweep(st, 2*time.Minute)
	g.answerOpen(st)
	g.create(st, 6)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Tasks open at the compaction live on only in the snapshot: the
	// reopened sinks see their later events but never their creation.
	g.answerOpen(st)
	g.create(st, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, ins, lce := g.open()
	defer st.Close()
	if !st.Recovery().SnapshotLoaded {
		t.Fatal("reopen did not load the compaction snapshot")
	}
	g.create(st, 10)
	g.sweep(st, 2*time.Minute)
	g.answerOpen(st)
	g.create(st, 3)
	g.sweep(st, 2*time.Hour)
	g.create(st, 4)

	// The stream must reach every path the views count.
	is, ls := ins.Stats(), lce.Stats()
	if is.UnknownTaskEvents == 0 || is.PairsDropped == 0 || is.Timeouts == 0 ||
		is.Declines == 0 || is.TasksExpired == 0 || is.TasksOpen == 0 ||
		ls.TimelinesEvicted == 0 || ls.Replacements == 0 {
		t.Fatalf("stream misses a path: insight %+v lifecycle %+v", is, ls)
	}

	var out bytes.Buffer
	srv := New(Config{Tasks: st, Insight: ins, Lifecycle: lce})
	get := func(s *Server, path string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		fmt.Fprintf(&out, "== GET %s %d\n%s", path, rec.Code, rec.Body.Bytes())
	}
	for _, path := range []string{
		"/v1/insight/jurors", "/v1/insight/jurors?limit=3",
		"/v1/insight/calibration",
		"/v1/insight/agreement", "/v1/insight/agreement?limit=2",
		"/v1/lifecycle",
	} {
		get(srv, path)
	}
	for _, v := range st.List("") {
		get(srv, "/v1/tasks/"+v.ID+"/timeline")
	}
	get(srv, "/v1/tasks/t99999999/timeline")

	// /metrics and the exposition carry volatile values beside the
	// views' blocks; keep only the blocks.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== /metrics insight\n%s\n== /metrics lifecycle\n%s\n", m["insight"], m["lifecycle"])
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil))
	out.WriteString("== /metrics/prometheus juryd_insight_* juryd_lifecycle_*\n")
	for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if strings.HasPrefix(name, "juryd_insight_") || strings.HasPrefix(name, "juryd_lifecycle_") {
			out.WriteString(line)
		}
	}

	bare := New(Config{})
	for _, path := range []string{
		"/v1/insight/jurors", "/v1/insight/calibration", "/v1/insight/agreement",
		"/v1/tasks/t00000000/timeline", "/v1/lifecycle", "/v1/slo",
	} {
		get(bare, path)
	}

	golden := filepath.Join("testdata", "derived_views.golden")
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
				t.Fatalf("derived views differ from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, a, b)
			}
		}
	}
}
