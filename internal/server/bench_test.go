package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"juryselect/internal/insight"
	"juryselect/internal/lifecycle"
	"juryselect/internal/randx"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// benchJurors draws n jurors with stable IDs j0000, j0001, … from seed
// 11: ε ~ N(0.3, 0.15) and cost ~ N(0.1, 0.1), both truncated. Every
// benchmark and allocation cap in this file selects from benchJurors(101),
// whose altruistic jury has 65 members.
func benchJurors(n int) []jury.Juror {
	src := randx.New(11)
	rates := src.ErrorRates(n, 0.3, 0.15)
	costs := src.Requirements(n, 0.1, 0.1)
	out := make([]jury.Juror, n)
	for i := range out {
		out[i] = jury.Juror{ID: fmt.Sprintf("j%04d", i), ErrorRate: rates[i], Cost: costs[i]}
	}
	return out
}

// newBenchServer returns a server over a task store in a fresh WAL
// directory holding benchJurors(101) as "crowd". fsync and
// auto-compaction are off: these measure per-request cost, and the
// 8,192-record compaction threshold sits inside the iteration counts a
// benchmark picks, so a run that crossed it would also pay one
// whole-store snapshot. With sinks set, insight and lifecycle engines
// hang on the store's event stream and serve from the server, as
// cmd/juryd wires them.
func newBenchServer(tb testing.TB, sinks bool, cfg Config) *Server {
	tb.Helper()
	var events tasks.EventSink
	if sinks {
		cfg.Insight, cfg.Lifecycle = insight.New(0), lifecycle.New(0)
		events = tasks.Sinks(cfg.Insight, cfg.Lifecycle)
	}
	store, err := tasks.Open(tasks.Config{Dir: tb.TempDir(), Sync: tasks.SyncOff, CompactEvery: -1, Events: events})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() }) //nolint:errcheck
	if _, err := store.PutPool("crowd", benchJurors(101)); err != nil {
		tb.Fatal(err)
	}
	cfg.Tasks = store
	return New(cfg)
}

// createFixed opens a task whose jury never stops early, so every
// member's vote is accepted.
func createFixed(tb testing.TB, s *Server) tasks.View {
	tb.Helper()
	v, err := s.tasks.Create(context.Background(), tasks.Spec{Pool: "crowd", TargetConfidence: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// decidedTask opens a task and votes yes until it closes early.
func decidedTask(tb testing.TB, s *Server) string {
	tb.Helper()
	ctx := context.Background()
	v, err := s.tasks.Create(ctx, tasks.Spec{Pool: "crowd", TargetConfidence: 0.95})
	if err != nil {
		tb.Fatal(err)
	}
	for _, j := range v.Jurors {
		out, err := s.tasks.Vote(ctx, v.ID, j.ID, true)
		if err != nil {
			tb.Fatal(err)
		}
		if out.Status != tasks.StatusOpen && out.Status != tasks.StatusAwaitingVotes {
			return v.ID
		}
	}
	tb.Fatalf("task %s never closed", v.ID)
	return ""
}

func voteBody(jurorID string) string {
	return fmt.Sprintf(`{"juror_id":%q,"vote":true}`, jurorID)
}

// batchBody votes yes for every one of jurors in one batch.
func batchBody(jurors []tasks.JurorView) string {
	var sb strings.Builder
	sb.WriteString(`{"votes":[`)
	for k, j := range jurors {
		if k > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(voteBody(j.ID))
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// allocWriter is a ResponseWriter that keeps the status and discards
// the body.
type allocWriter struct {
	h      http.Header
	status int
}

func (w *allocWriter) Header() http.Header { return w.h }
func (w *allocWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}
func (w *allocWriter) WriteHeader(status int) { w.status = status }

// serveAllocs serves reqs through h with no socket, one per call, and
// returns testing.AllocsPerRun's count: the first request warms up and
// the rest are measured. Building every request beforehand keeps the
// harness's own allocations out of the count, and the collector is off
// while it counts, because a collection empties the sync.Pools and the
// refills that follow would read as allocations of whichever request
// came next. Each request must answer want.
func serveAllocs(t *testing.T, h http.Handler, reqs []*http.Request, want int) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := &allocWriter{h: make(http.Header)}
	next := 0
	return testing.AllocsPerRun(len(reqs)-1, func() {
		r := reqs[next]
		next++
		w.status = 0
		h.ServeHTTP(w, r)
		if w.status != want {
			t.Fatalf("%s %s: status %d, want %d", r.Method, r.URL.Path, w.status, want)
		}
	})
}

// repeated returns n requests of one method, target and body.
func repeated(n int, method, target, body string) []*http.Request {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	return reqs
}

// TestWarmSelectAllocations is the overhead guard at test granularity:
// with tracing disabled, the fully instrumented warm select allocates 15
// objects, and attaching insight and lifecycle, as juryd does, adds none.
func TestWarmSelectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector degrades sync.Pool reuse; allocation counts are not meaningful")
	}
	for _, sinks := range []bool{false, true} {
		s := newBenchServer(t, sinks, Config{})
		got := serveAllocs(t, s.Handler(), repeated(201, http.MethodPost, "/v1/select", `{"pool":"crowd"}`), http.StatusOK)
		t.Logf("sinks %v: %.0f allocs/op", sinks, got)
		if got > 15 {
			t.Errorf("warm select (sinks %v) allocates %.0f/op, cap 15", sinks, got)
		}
	}
}

// TestTaskAllocations caps the allocations of the task paths juryd
// serves, with insight and lifecycle attached as juryd attaches them.
// Each cap is the exact count the harness read when it was set, the same
// in every run at -count 10 -cpu 1,2,4, so one added allocation fails.
// Each case is measured on servers fresh servers and the counts
// averaged: one that measures a single request per server needs several,
// because an allocation outside the request now and then adds one to a
// single reading (about one run in twenty-five, on any request).
func TestTaskAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector degrades sync.Pool reuse; allocation counts are not meaningful")
	}
	for _, tc := range []struct {
		name    string
		cap     float64
		want    int
		servers int
		reqs    func(s *Server) []*http.Request
	}{
		{"create", 40, http.StatusCreated, 1, func(s *Server) []*http.Request {
			return repeated(50, http.MethodPost, "/v1/tasks", `{"pool":"crowd"}`)
		}},
		{"vote", 16, http.StatusOK, 1, func(s *Server) []*http.Request {
			// One jury is voted through untimed, so every measured
			// verdict finds its agreement pairs tracked; insight's first
			// verdict is the first-verdict case. Two more juries are
			// measured, closing votes included, as in the benchmark.
			ctx := context.Background()
			first := createFixed(t, s)
			for _, j := range first.Jurors {
				if _, err := s.tasks.Vote(ctx, first.ID, j.ID, true); err != nil {
					t.Fatal(err)
				}
			}
			var reqs []*http.Request
			for i := 0; i < 2; i++ {
				v := createFixed(t, s)
				for _, j := range v.Jurors {
					reqs = append(reqs, httptest.NewRequest(http.MethodPost,
						"/v1/tasks/"+v.ID+"/votes", strings.NewReader(voteBody(j.ID))))
				}
			}
			return reqs
		}},
		{"vote-batch", 298, http.StatusOK, 1, func(s *Server) []*http.Request {
			// The warm-up batch takes insight's first verdict.
			reqs := make([]*http.Request, 11)
			for i := range reqs {
				v := createFixed(t, s)
				reqs[i] = httptest.NewRequest(http.MethodPost,
					"/v1/tasks/"+v.ID+"/votes/batch", strings.NewReader(batchBody(v.Jurors)))
			}
			return reqs
		}},
		{"first-verdict", 55, http.StatusOK, 10, func(s *Server) []*http.Request {
			// Insight's first verdict: the measured vote closes the first
			// task to close, so all 2,080 pairs of its 65-juror jury enter
			// the tracker. The jury's other votes go in untimed, and the
			// warm-up vote opens the path on a task that stays open.
			ctx := context.Background()
			open, first := createFixed(t, s), createFixed(t, s)
			last := first.Jurors[len(first.Jurors)-1]
			for _, j := range first.Jurors[:len(first.Jurors)-1] {
				if _, err := s.tasks.Vote(ctx, first.ID, j.ID, true); err != nil {
					t.Fatal(err)
				}
			}
			return []*http.Request{
				httptest.NewRequest(http.MethodPost, "/v1/tasks/"+open.ID+"/votes",
					strings.NewReader(voteBody(open.Jurors[0].ID))),
				httptest.NewRequest(http.MethodPost, "/v1/tasks/"+first.ID+"/votes",
					strings.NewReader(voteBody(last.ID))),
			}
		}},
		{"get", 4, http.StatusOK, 1, func(s *Server) []*http.Request {
			// A decided task: the view renders its jurors and verdict.
			return repeated(200, http.MethodGet, "/v1/tasks/"+decidedTask(t, s), "")
		}},
		{"timeline", 18, http.StatusOK, 1, func(s *Server) []*http.Request {
			return repeated(200, http.MethodGet, "/v1/tasks/"+decidedTask(t, s)+"/timeline", "")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got float64
			for i := 0; i < tc.servers; i++ {
				s := newBenchServer(t, true, Config{})
				got += serveAllocs(t, s.Handler(), tc.reqs(s), tc.want)
			}
			got = math.Floor(got / float64(tc.servers))
			t.Logf("%s: %.0f allocs/op (cap %.0f)", tc.name, got, tc.cap)
			if got > tc.cap {
				t.Errorf("%s allocates %.0f/op, cap %.0f", tc.name, got, tc.cap)
			}
		})
	}
}

// benchServe times serving one request through h with no socket,
// reusing the request and a discarding writer, after one untimed call
// that primes the select cache and any lazy state.
func benchServe(b *testing.B, h http.Handler, method, target, body string) {
	rdr := strings.NewReader(body)
	req := httptest.NewRequest(method, target, nil)
	w := &allocWriter{h: make(http.Header)}
	run := func() {
		rdr.Reset(body)
		req.Body = io.NopCloser(rdr)
		req.ContentLength = int64(len(body))
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("%s %s: status %d", method, target, w.status)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkServerSelectMiss is a select with the response cache off, so
// every op recomputes the selection: the miss cost the cache saves.
func BenchmarkServerSelectMiss(b *testing.B) {
	s := newBenchServer(b, false, Config{SelectCacheEntries: -1})
	benchServe(b, s.Handler(), http.MethodPost, "/v1/select", `{"pool":"crowd"}`)
}

// BenchmarkServerSelectWarmSinks is the warm select with insight and
// lifecycle attached: the select path touches neither.
func BenchmarkServerSelectWarmSinks(b *testing.B) {
	s := newBenchServer(b, true, Config{})
	benchServe(b, s.Handler(), http.MethodPost, "/v1/select", `{"pool":"crowd"}`)
}

// BenchmarkServerTaskTimeline re-serves one decided task's timeline:
// snapshot under the engine lock, span assembly, fingerprint and encode,
// the read an operator's dashboard polls.
func BenchmarkServerTaskTimeline(b *testing.B) {
	s := newBenchServer(b, true, Config{})
	benchServe(b, s.Handler(), http.MethodGet, "/v1/tasks/"+decidedTask(b, s)+"/timeline", "")
}

// newBenchHTTP serves newBenchServer, without sinks, over loopback.
func newBenchHTTP(b *testing.B) (*Server, string) {
	s := newBenchServer(b, false, Config{})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts.URL
}

// postBench posts body to url and fails b unless the status is want.
func postBench(b *testing.B, url, body string, want int) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != want {
		b.Fatalf("%s: status %d: %s", url, resp.StatusCode, raw)
	}
}

// benchPost times posting one body to path over loopback.
func benchPost(b *testing.B, path, body string, want int) {
	_, base := newBenchHTTP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, base+path, body, want)
	}
}

func BenchmarkServerSelectPay(b *testing.B) {
	benchPost(b, "/v1/select", `{"pool":"crowd","model":"pay","budget":5}`, http.StatusOK)
}

// BenchmarkServerSelectBatch posts 16 pay selects with distinct budgets,
// so each op probes (and the first fills) 16 cache entries.
func BenchmarkServerSelectBatch(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`{"selects":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"pool":"crowd","model":"pay","budget":%d}`, i+1)
	}
	sb.WriteString(`]}`)
	benchPost(b, "/v1/select/batch", sb.String(), http.StatusOK)
}

// BenchmarkServerTaskCreate is a create round trip: selection plus
// journal.
func BenchmarkServerTaskCreate(b *testing.B) {
	benchPost(b, "/v1/tasks", `{"pool":"crowd"}`, http.StatusCreated)
}

// BenchmarkServerTaskVote is one vote round trip against fixed-jury
// tasks; a new task opens, untimed, once every jury member has voted.
func BenchmarkServerTaskVote(b *testing.B) {
	s, base := newBenchHTTP(b)
	v, next := createFixed(b, s), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(v.Jurors) {
			b.StopTimer()
			v, next = createFixed(b, s), 0
			b.StartTimer()
		}
		postBench(b, base+"/v1/tasks/"+v.ID+"/votes", voteBody(v.Jurors[next].ID), http.StatusOK)
		next++
	}
}

// BenchmarkServerTaskVoteBatch votes a fresh fixed-jury task to its
// verdict in one batch round trip per op (creation untimed). Divide
// ns/op by the "votes" metric to compare with BenchmarkServerTaskVote.
func BenchmarkServerTaskVoteBatch(b *testing.B) {
	s, base := newBenchHTTP(b)
	votes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v := createFixed(b, s)
		body := batchBody(v.Jurors)
		votes += len(v.Jurors)
		b.StartTimer()
		postBench(b, base+"/v1/tasks/"+v.ID+"/votes/batch", body, http.StatusOK)
	}
	b.ReportMetric(float64(votes)/float64(b.N), "votes")
}

// BenchmarkServerTaskGet is the lock-free read path: a GET of a
// voted-on task serves its published view, with no shard lock.
func BenchmarkServerTaskGet(b *testing.B) {
	s, base := newBenchHTTP(b)
	v := createFixed(b, s)
	for _, j := range v.Jurors[:3] {
		postBench(b, base+"/v1/tasks/"+v.ID+"/votes", voteBody(j.ID), http.StatusOK)
	}
	url := base + "/v1/tasks/" + v.ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
