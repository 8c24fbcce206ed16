package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"juryselect/internal/core"
	"juryselect/internal/engine"
	"juryselect/internal/experiments"
	"juryselect/internal/insight"
	"juryselect/internal/jer"
	"juryselect/internal/lifecycle"
	"juryselect/internal/obs"
	"juryselect/internal/pool"
	"juryselect/internal/randx"
	"juryselect/internal/server"
	"juryselect/internal/simul"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// benchEntry is one benchmark's measurement in the machine-readable
// snapshot: the same three axes `go test -bench` reports, plus any
// custom metrics the benchmark emitted via b.ReportMetric (e.g. the
// simulator's steps/s and the sustained-HTTP p99 latency).
type benchEntry struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// benchSnapshot is the file -bench-json writes. Snapshots are committed as
// BENCH_PR<n>.json so the performance trajectory of the hot path is
// tracked in-tree, PR over PR, with enough environment detail to judge
// comparability.
type benchSnapshot struct {
	Schema     string       `json:"schema"`
	Generated  string       `json:"generated"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Note       string       `json:"note"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// namedBench pairs a stable snapshot name with a testing.B target. Names
// mirror the bench_test.go benchmarks they correspond to, so in-tree
// snapshots and `go test -bench` output line up.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

func benchRates(seed int64, n int) []float64 {
	return randx.New(seed).ErrorRates(n, 0.3, 0.15)
}

func benchJurors(n int) []core.Juror {
	src := randx.New(11)
	rates := src.ErrorRates(n, 0.3, 0.15)
	costs := src.Requirements(n, 0.1, 0.1)
	out := make([]core.Juror, n)
	for i := range out {
		out[i] = core.Juror{ErrorRate: rates[i], Cost: costs[i]}
	}
	return out
}

func benchJuries(count, size int) [][]float64 {
	src := randx.New(17)
	juries := make([][]float64, count)
	for i := range juries {
		juries[i] = src.ErrorRates(size, 0.3, 0.15)
	}
	return juries
}

func jerBench(algo jer.Algorithm, n int) func(b *testing.B) {
	return func(b *testing.B) {
		rates := benchRates(7, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := jer.Compute(rates, algo); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func experimentBench(id string) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := experiments.QuickConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Run(id, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRegistry is the tracked benchmark set: the JER evaluator kernels,
// the batch engine's three EvaluateAll modes, the solvers, and the paper's
// figure/ablation experiments at QuickConfig scale.
func benchRegistry() []namedBench {
	benches := []namedBench{
		{"JER_DP_n101", jerBench(jer.DPAlgo, 101)},
		{"JER_DP_n1001", jerBench(jer.DPAlgo, 1001)},
		{"JER_CBA_n101", jerBench(jer.CBAAlgo, 101)},
		{"JER_CBA_n1001", jerBench(jer.CBAAlgo, 1001)},
		{"JER_CBA_n8191", jerBench(jer.CBAAlgo, 8191)},
		{"JER_Enum_n21", jerBench(jer.EnumAlgo, 21)},
	}
	for _, size := range []int{11, 101} {
		size := size
		benches = append(benches,
			namedBench{fmt.Sprintf("EvaluateAll/serial/n%d", size), func(b *testing.B) {
				juries := benchJuries(1000, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, rates := range juries {
						if _, err := jer.Compute(rates, jer.Auto); err != nil {
							b.Fatal(err)
						}
					}
				}
			}},
			namedBench{fmt.Sprintf("EvaluateAll/parallel/n%d", size), func(b *testing.B) {
				juries := benchJuries(1000, size)
				eng := engine.New(engine.Options{CacheSize: -1})
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, r := range eng.EvaluateAll(ctx, juries) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			}},
			namedBench{fmt.Sprintf("EvaluateAll/cached/n%d", size), func(b *testing.B) {
				juries := benchJuries(1000, size)
				eng := engine.New(engine.Options{})
				ctx := context.Background()
				eng.EvaluateAll(ctx, juries) // warm the memo
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, r := range eng.EvaluateAll(ctx, juries) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			}},
		)
	}
	benches = append(benches,
		namedBench{"SelectAltrFaithful_n501", func(b *testing.B) {
			cands := benchJurors(501)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectAltr(cands, core.AltrOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		namedBench{"SelectAltrIncremental_n501", func(b *testing.B) {
			cands := benchJurors(501)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectAltr(cands, core.AltrOptions{Incremental: true}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		namedBench{"SelectPay_n501", func(b *testing.B) {
			cands := benchJurors(501)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectPay(cands, core.PayOptions{Budget: 5}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		namedBench{"SelectOpt_n18", func(b *testing.B) {
			cands := benchJurors(18)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectOpt(cands, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		namedBench{"SelectOptParallel_n18", func(b *testing.B) {
			cands := benchJurors(18)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectOptParallel(cands, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)
	benches = append(benches, serverBenches()...)
	benches = append(benches, taskBenches()...)
	benches = append(benches, simulBenches()...)
	for _, id := range experiments.List() {
		benches = append(benches, namedBench{"experiment/" + id, experimentBench(id)})
	}
	return benches
}

// simulBenches measures the closed-loop simulator (internal/simul) and
// the sustained HTTP select path it drives: one op is a whole scenario
// run (steps/s reported as an extra metric), and the sustained-HTTP
// bench is a multi-client closed loop against a live pool, reporting
// p50/p99 latency alongside throughput.
func simulBenches() []namedBench {
	simBench := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			sc := simul.Scenario{
				Name: "bench", Seed: 23, Steps: 100, Population: 40,
				RateMean: 0.4, RateStddev: 0.1,
				Drift:        simul.DriftSpec{Model: simul.DriftWalk},
				ChurnPerStep: 0.5,
				Replications: 4,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simul.Run(context.Background(), sc, simul.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			steps := float64(sc.Steps * sc.Replications * b.N)
			b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/s")
		}
	}
	return []namedBench{
		{"Simul/inprocess/serial", simBench(1)},
		{"Simul/inprocess/parallel", simBench(0)},
		{"JuryloadHTTP/select/n1001", func(b *testing.B) {
			srv := server.New(server.Config{})
			if _, err := srv.Store().Put("crowd", benchPoolJurors(1001)); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			const clients = 4
			body := []byte(`{"pool":"crowd"}`)
			var next atomic.Int64
			// One shared atomic histogram replaces the per-client sample
			// slices: concurrent writers need no partitioning, and the
			// percentile extras come straight from the snapshot.
			var lat obs.Histogram
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for int(next.Add(1)) <= b.N {
						start := time.Now()
						resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body) //nolint:errcheck
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
						lat.Observe(time.Since(start).Nanoseconds())
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			snap := lat.Snapshot()
			if snap.Count == 0 {
				return
			}
			b.ReportMetric(float64(snap.Quantile(0.50)), "p50-ns")
			b.ReportMetric(float64(snap.Quantile(0.90)), "p90-ns")
			b.ReportMetric(float64(snap.Quantile(0.99)), "p99-ns")
			b.ReportMetric(float64(snap.Quantile(0.999)), "p999-ns")
		}},
	}
}

// taskBenches measures the durable task subsystem: full HTTP round trips
// for task creation (selection + journal) and the vote hot path
// (posterior update + journal per call), the raw WAL append (framing +
// CRC + buffered write; the "off" variant is the alloc-guarded kernel,
// "batch" adds the group-commit fsync wait), and recovery replay
// throughput (records/s as an extra metric).
func taskBenches() []namedBench {
	taskServer := func(b *testing.B, dir string) *httptest.Server {
		// Auto-compaction is off: these benchmarks isolate per-op write
		// cost, and the 8192-record threshold sits inside the iteration
		// counts testing.Benchmark picks here — a run that happens to
		// cross it pays one whole-store snapshot marshal and reads ~2×
		// slower than one that doesn't (the historical numbers, PR 6
		// included, all landed below the cliff).
		store, err := tasks.Open(tasks.Config{Dir: dir, Sync: tasks.SyncOff, CompactEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.PutPool("crowd", benchPoolJurors(101)); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(server.New(server.Config{Tasks: store}).Handler())
		b.Cleanup(func() {
			ts.Close()
			store.Close() //nolint:errcheck
		})
		return ts
	}
	post := func(b *testing.B, url string, body []byte, want int) []byte {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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
		return raw
	}
	return []namedBench{
		{"ServerTaskCreate/n101", func(b *testing.B) {
			ts := taskServer(b, b.TempDir())
			body := []byte(`{"pool":"crowd"}`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, ts.URL+"/v1/tasks", body, http.StatusCreated)
			}
		}},
		{"ServerTaskVote/n101", func(b *testing.B) {
			// One vote per op against always-fresh fixed-jury tasks: a
			// task is created (untimed) every jurySize votes.
			ts := taskServer(b, b.TempDir())
			created := post(b, ts.URL+"/v1/tasks", []byte(`{"pool":"crowd","target_confidence":1}`), http.StatusCreated)
			var cr struct {
				Task struct {
					ID     string `json:"id"`
					Jurors []struct {
						ID string `json:"id"`
					} `json:"jurors"`
				} `json:"task"`
			}
			if err := json.Unmarshal(created, &cr); err != nil {
				b.Fatal(err)
			}
			id, jurors, next := cr.Task.ID, cr.Task.Jurors, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == len(jurors) {
					b.StopTimer()
					created = post(b, ts.URL+"/v1/tasks", []byte(`{"pool":"crowd","target_confidence":1}`), http.StatusCreated)
					if err := json.Unmarshal(created, &cr); err != nil {
						b.Fatal(err)
					}
					id, jurors, next = cr.Task.ID, cr.Task.Jurors, 0
					b.StartTimer()
				}
				body := []byte(fmt.Sprintf(`{"juror_id":%q,"vote":true}`, jurors[next].ID))
				post(b, ts.URL+"/v1/tasks/"+id+"/votes", body, http.StatusOK)
				next++
			}
		}},
		{"ServerTaskVoteBatch/n101", func(b *testing.B) {
			// One op = one batch round trip voting a fresh fixed-jury task
			// to completion (creation untimed): ServerTaskVote's per-vote
			// journal and posterior work amortized into a single
			// decode/encode. Divide ns/op by the jury size ("votes" extra
			// metric) to compare per-vote cost with ServerTaskVote.
			ts := taskServer(b, b.TempDir())
			createBody := []byte(`{"pool":"crowd","target_confidence":1}`)
			votes := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				created := post(b, ts.URL+"/v1/tasks", createBody, http.StatusCreated)
				var cr struct {
					Task struct {
						ID     string `json:"id"`
						Jurors []struct {
							ID string `json:"id"`
						} `json:"jurors"`
					} `json:"task"`
				}
				if err := json.Unmarshal(created, &cr); err != nil {
					b.Fatal(err)
				}
				var body bytes.Buffer
				body.WriteString(`{"votes":[`)
				for k, j := range cr.Task.Jurors {
					if k > 0 {
						body.WriteByte(',')
					}
					fmt.Fprintf(&body, `{"juror_id":%q,"vote":true}`, j.ID)
				}
				body.WriteString(`]}`)
				votes += len(cr.Task.Jurors)
				b.StartTimer()
				post(b, ts.URL+"/v1/tasks/"+cr.Task.ID+"/votes/batch", body.Bytes(), http.StatusOK)
			}
			b.ReportMetric(float64(votes)/float64(b.N), "votes")
		}},
		{"ServerTaskGet/n101", func(b *testing.B) {
			// The lock-free read path: GET of a voted-on task serves the
			// published COW snapshot — no shard lock, no view render.
			ts := taskServer(b, b.TempDir())
			created := post(b, ts.URL+"/v1/tasks", []byte(`{"pool":"crowd","target_confidence":1}`), http.StatusCreated)
			var cr struct {
				Task struct {
					ID     string `json:"id"`
					Jurors []struct {
						ID string `json:"id"`
					} `json:"jurors"`
				} `json:"task"`
			}
			if err := json.Unmarshal(created, &cr); err != nil {
				b.Fatal(err)
			}
			for _, j := range cr.Task.Jurors[:3] {
				post(b, ts.URL+"/v1/tasks/"+cr.Task.ID+"/votes",
					[]byte(fmt.Sprintf(`{"juror_id":%q,"vote":true}`, j.ID)), http.StatusOK)
			}
			url := ts.URL + "/v1/tasks/" + cr.Task.ID
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
		}},
		{"TaskHammer/sharded/g8", taskHammer},
		{"WALAppend/off", func(b *testing.B) {
			w, _, err := tasks.OpenWAL(filepath.Join(b.TempDir(), "wal.log"), tasks.WALOptions{Sync: tasks.SyncOff})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close() //nolint:errcheck
			payload := []byte(`{"t":"vote","task":"t00000001","juror":"j00042","vote":true}`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"WALAppend/batch", func(b *testing.B) {
			// Group commit only pays off under fan-in: a serial loop
			// would measure one full fsync wait per append. Eight
			// concurrent appenders share each fsync, so ns/op is the
			// amortized durable-append cost at realistic fan-in.
			w, _, err := tasks.OpenWAL(filepath.Join(b.TempDir(), "wal.log"), tasks.WALOptions{Sync: tasks.SyncBatch})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close() //nolint:errcheck
			payload := []byte(`{"t":"vote","task":"t00000001","juror":"j00042","vote":true}`)
			b.ReportAllocs()
			b.SetParallelism(8) // 8×GOMAXPROCS appender goroutines
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := w.Append(payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
		}},
		{"WALReplay/votes", func(b *testing.B) {
			// A vote-heavy log: 100 fixed-jury tasks fully voted through
			// the store, then each op recovers the whole directory.
			dir := b.TempDir()
			store, err := tasks.Open(tasks.Config{Dir: dir, Sync: tasks.SyncOff, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := store.PutPool("crowd", benchPoolJurors(101)); err != nil {
				b.Fatal(err)
			}
			records := int64(1)
			for i := 0; i < 100; i++ {
				v, err := store.Create(context.Background(), tasks.Spec{Pool: "crowd", TargetConfidence: 1})
				if err != nil {
					b.Fatal(err)
				}
				records++
				for _, j := range v.Jurors {
					if _, err := store.Vote(context.Background(), v.ID, j.ID, i%2 == 0); err != nil {
						b.Fatal(err)
					}
					records++
				}
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s2, err := tasks.Open(tasks.Config{Dir: dir, Sync: tasks.SyncOff, CompactEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				if s2.Recovery().Records != records {
					b.Fatalf("replayed %d records, want %d", s2.Recovery().Records, records)
				}
				b.StopTimer()
				s2.Close() //nolint:errcheck
				b.StartTimer()
			}
			b.ReportMetric(float64(records*int64(b.N))/b.Elapsed().Seconds(), "records/s")
		}},
	}
}

// taskHammer is the mixed concurrent write workload behind the
// TaskHammer benchmark: 8 goroutines (regardless of a 1-core
// GOMAXPROCS — the workload is fsync-bound, not CPU-bound), each
// creating its own fixed-jury tasks and voting them through, every
// mutation durable at fsync=batch. One op is one mutation (create or
// vote); the votes/s extra metric is the durable write throughput.
// Compaction is off: its stop-the-world snapshot marshal would otherwise
// dominate and mask the write path.
func taskHammer(b *testing.B) {
	store, err := tasks.Open(tasks.Config{Dir: b.TempDir(), Sync: tasks.SyncBatch, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close() //nolint:errcheck
	if _, err := store.PutPool("crowd", benchPoolJurors(101)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var votes atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(8) // 8×GOMAXPROCS hammer goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var id string
		var jurors []tasks.JurorView
		next := 0
		for pb.Next() {
			if next == len(jurors) {
				v, err := store.Create(ctx, tasks.Spec{Pool: "crowd", TargetConfidence: 1})
				if err != nil {
					b.Error(err)
					return
				}
				id, jurors, next = v.ID, v.Jurors, 0
				continue
			}
			if _, err := store.Vote(context.Background(), id, jurors[next].ID, next%2 == 0); err != nil {
				b.Error(err)
				return
			}
			next++
			votes.Add(1)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(votes.Load())/b.Elapsed().Seconds(), "votes/s")
}

// benchPoolJurors converts the shared juror generator to the public type
// with stable IDs, as the pool store requires.
func benchPoolJurors(n int) []jury.Juror {
	raw := benchJurors(n)
	out := make([]jury.Juror, n)
	for i, j := range raw {
		out[i] = jury.Juror{ID: fmt.Sprintf("j%04d", i), ErrorRate: j.ErrorRate, Cost: j.Cost}
	}
	return out
}

// nullWriter is a minimal http.ResponseWriter for the handler-level
// select benchmarks: the full-HTTP entries measure the wire, these
// measure the server path itself (decode, snapshot read, cache probe or
// engine run, response write) without httptest scaffolding dominating.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// handlerSelectBench measures POST /v1/select at the handler level
// against a 101-juror pool: cacheEntries 0 keeps the default
// version-keyed response cache (every op after the first is a warm
// hit), -1 disables it (every op recomputes the selection — the miss
// cost the cache saves).
func handlerSelectBench(cacheEntries int) func(b *testing.B) {
	return func(b *testing.B) {
		srv := server.New(server.Config{SelectCacheEntries: cacheEntries})
		if _, err := srv.Store().Put("crowd", benchPoolJurors(101)); err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		body := []byte(`{"pool":"crowd"}`)
		rdr := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/select", rdr)
		w := &nullWriter{h: make(http.Header)}
		run := func() {
			rdr.Reset(body)
			req.Body = io.NopCloser(rdr)
			req.ContentLength = int64(len(body))
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
		run() // prime the cache (warm variant) and lazy pool state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// handlerSelectInsightBench is the warm select with the full
// observability stack installed the way cmd/juryd installs it: an
// ephemeral task store with the insight AND lifecycle engines hooked
// on its event stream, and both attached to the server. The select
// path never touches either — the absolute allocation guard in
// regressionGuards proves the hooks keep the warm select on its
// 16-alloc diet.
func handlerSelectInsightBench() func(b *testing.B) {
	return func(b *testing.B) {
		ins := insight.New(0)
		lce := lifecycle.New(0)
		store, err := tasks.Open(tasks.Config{Events: tasks.Sinks(ins, lce)})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close() //nolint:errcheck
		srv := server.New(server.Config{Tasks: store, Insight: ins, Lifecycle: lce})
		if _, err := srv.Store().Put("crowd", benchPoolJurors(101)); err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		body := []byte(`{"pool":"crowd"}`)
		rdr := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/select", rdr)
		w := &nullWriter{h: make(http.Header)}
		run := func() {
			rdr.Reset(body)
			req.Body = io.NopCloser(rdr)
			req.ContentLength = int64(len(body))
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
		run() // prime the cache and lazy pool state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// handlerTaskTimelineBench measures GET /v1/tasks/{id}/timeline at the
// handler level: one decided task's reconstruction — snapshot under
// the engine lock, span assembly, fingerprint, JSON encode — which is
// the read an operator's dashboard polls. The task is driven to an
// early-stop verdict once during setup; every op re-serves the same
// closed timeline.
func handlerTaskTimelineBench() func(b *testing.B) {
	return func(b *testing.B) {
		lce := lifecycle.New(0)
		store, err := tasks.Open(tasks.Config{Events: lce})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close() //nolint:errcheck
		if _, err := store.PutPool("crowd", benchPoolJurors(101)); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		v, err := store.Create(ctx, tasks.Spec{Pool: "crowd", TargetConfidence: 0.95})
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range v.Jurors {
			out, err := store.Vote(ctx, v.ID, j.ID, true)
			if err != nil {
				b.Fatal(err)
			}
			if out.Status != tasks.StatusOpen && out.Status != tasks.StatusAwaitingVotes {
				break
			}
		}
		srv := server.New(server.Config{Tasks: store, Lifecycle: lce})
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/tasks/"+v.ID+"/timeline", nil)
		w := &nullWriter{h: make(http.Header)}
		run := func() {
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// serverBenches measures the serving path of cmd/juryd: full HTTP round
// trips through internal/server (mirroring BenchmarkServerSelect and
// BenchmarkServerJER in that package), the handler-level warm/miss
// select split (the PR 6 response cache's effect), the batch endpoints,
// and the pool store's snapshot read and patch publication
// (BenchmarkPoolSnapshot, BenchmarkPoolPatch).
func serverBenches() []namedBench {
	httpBench := func(path, body string, setup func(*server.Server)) func(b *testing.B) {
		return func(b *testing.B) {
			srv := server.New(server.Config{})
			if setup != nil {
				setup(srv)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			raw := []byte(body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("%s: status %d", path, resp.StatusCode)
				}
			}
		}
	}
	withPool := func(n int) func(*server.Server) {
		return func(s *server.Server) {
			if _, err := s.Store().Put("crowd", benchPoolJurors(n)); err != nil {
				panic(err)
			}
		}
	}
	jerBody, err := json.Marshal(map[string]any{"error_rates": benchRates(7, 101)})
	if err != nil {
		panic(err)
	}
	batchBody := func(items int) string {
		var sb bytes.Buffer
		sb.WriteString(`{"selects":[`)
		for i := 0; i < items; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			// Distinct budgets make distinct cache keys: the batch probes
			// (and, on the first op, fills) `items` separate entries.
			fmt.Fprintf(&sb, `{"pool":"crowd","model":"pay","budget":%d}`, i+1)
		}
		sb.WriteString(`]}`)
		return sb.String()
	}
	return []namedBench{
		{"ServerSelect/altr/n101", httpBench("/v1/select", `{"pool":"crowd"}`, withPool(101))},
		{"ServerSelect/pay/n101", httpBench("/v1/select", `{"pool":"crowd","model":"pay","budget":5}`, withPool(101))},
		{"ServerSelect/warm/n101", handlerSelectBench(0)},
		{"ServerSelect/warm-insight/n101", handlerSelectInsightBench()},
		{"ServerSelect/miss/n101", handlerSelectBench(-1)},
		{"ServerTaskTimeline/n101", handlerTaskTimelineBench()},
		{"ServerSelectBatch/http/n101x16", httpBench("/v1/select/batch", batchBody(16), withPool(101))},
		{"ServerJER/n101", httpBench("/v1/jer", string(jerBody), nil)},
		{"PoolSnapshot/n1001", func(b *testing.B) {
			store := pool.NewStore()
			if _, err := store.Put("crowd", benchPoolJurors(1001)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, ok := store.Get("crowd")
				if !ok || p.Size() != 1001 {
					b.Fatal("bad snapshot")
				}
			}
		}},
		{"PoolPatch/n101", func(b *testing.B) {
			store := pool.NewStore()
			if _, err := store.Put("crowd", benchPoolJurors(101)); err != nil {
				b.Fatal(err)
			}
			up := []pool.JurorUpdate{{ID: "j0050", Votes: &pool.VoteObservation{Wrong: 1, Total: 4}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Patch("crowd", up); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// writeBenchJSON runs the tracked benchmark set in-process via
// testing.Benchmark and writes the snapshot to path. Progress goes to
// progress (one line per benchmark) so long runs are observable.
func writeBenchJSON(path string, progress io.Writer) error {
	return writeBenchSnapshot(path, benchRegistry(), progress)
}

// benchGuard pins one benchmark axis against the committed snapshot:
// the fast-path promises PR 6 makes (a warm select is a cache probe; a
// batch vote stays on its allocation diet) regress loudly, not silently.
type benchGuard struct {
	name string
	axis string // "ns_per_op" | "allocs_per_op"
	// limit, when non-zero, makes the guard an absolute cap: the axis
	// must not exceed it, no snapshot entry required and no tolerance
	// applied. Only machine-independent axes (allocation counts) should
	// use it — an absolute nanosecond cap would encode one machine.
	limit float64
}

// regressionGuards is the -bench-check set. Warm-select guards time
// (the cache's whole point); the vote paths guard allocations, which
// are machine-independent and therefore tight. PR 7 adds the write-path
// fast-lane promises: single-op create/vote latency must not regress
// while the throughput work lands, and replay stays on its diet.
var regressionGuards = []benchGuard{
	{name: "ServerSelect/warm/n101", axis: "ns_per_op"},
	// PR 8's overhead guard: the instrumented warm select (per-endpoint
	// histogram + stage marks, tracing disabled) must add zero
	// allocations over the PR 7 baseline.
	{name: "ServerSelect/warm/n101", axis: "allocs_per_op"},
	// PR 9's overhead guard: with the insight engine hooked on the task
	// event stream and serving /v1/insight, the warm select must hold
	// its absolute 16-alloc diet — an absolute cap, so the promise holds
	// even before the snapshot is regenerated on a new machine.
	{name: "ServerSelect/warm-insight/n101", axis: "allocs_per_op", limit: 16},
	// PR 10's read-path guard: a timeline reconstruction is bounded work
	// (spans of one task + fingerprint + encode); its allocation count is
	// machine-independent, so a relative guard keeps it from quietly
	// growing a per-span allocation.
	{name: "ServerTaskTimeline/n101", axis: "allocs_per_op"},
	{name: "ServerTaskCreate/n101", axis: "ns_per_op"},
	{name: "ServerTaskVote/n101", axis: "ns_per_op"},
	{name: "ServerTaskVote/n101", axis: "allocs_per_op"},
	{name: "ServerTaskVoteBatch/n101", axis: "allocs_per_op"},
	{name: "WALReplay/votes", axis: "allocs_per_op"},
}

// checkBenchJSON re-runs the guarded benchmarks and fails if any
// guarded axis regressed more than tolerance (relative) against the
// snapshot at path. One line per guard goes to out either way.
func checkBenchJSON(path string, tolerance float64, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	baseline := make(map[string]benchEntry, len(snap.Benchmarks))
	for _, e := range snap.Benchmarks {
		baseline[e.Name] = e
	}
	registry := make(map[string]func(*testing.B))
	for _, nb := range benchRegistry() {
		registry[nb.name] = nb.fn
	}
	var failures []string
	results := make(map[string]testing.BenchmarkResult) // guards sharing a benchmark share one run
	for _, g := range regressionGuards {
		var base benchEntry
		if g.limit == 0 {
			var ok bool
			base, ok = baseline[g.name]
			if !ok {
				return fmt.Errorf("snapshot %s has no entry %q", path, g.name)
			}
		}
		res, ran := results[g.name]
		if !ran {
			fn, ok := registry[g.name]
			if !ok {
				return fmt.Errorf("no benchmark named %q in the registry", g.name)
			}
			res = testing.Benchmark(fn)
			results[g.name] = res
		}
		if res.N == 0 {
			return fmt.Errorf("benchmark %s failed", g.name)
		}
		var got, want float64
		switch g.axis {
		case "ns_per_op":
			got = float64(res.T.Nanoseconds()) / float64(res.N)
			want = base.NsPerOp
		case "allocs_per_op":
			got = float64(res.AllocsPerOp())
			want = float64(base.AllocsPerOp)
		default:
			return fmt.Errorf("unknown guard axis %q", g.axis)
		}
		limit := want * (1 + tolerance)
		ref := "baseline"
		if g.limit > 0 {
			limit, want, ref = g.limit, g.limit, "cap"
		}
		verdict := "ok"
		if got > limit {
			verdict = "REGRESSED"
			if g.limit > 0 {
				failures = append(failures,
					fmt.Sprintf("%s %s: %.1f exceeds the absolute cap %.1f",
						g.name, g.axis, got, limit))
			} else {
				failures = append(failures,
					fmt.Sprintf("%s %s: %.1f exceeds %.1f (+%.0f%% over baseline %.1f)",
						g.name, g.axis, got, limit, 100*tolerance, want))
			}
		}
		fmt.Fprintf(out, "%-32s %-13s %12.1f %-8s %12.1f  %s\n", g.name, g.axis, got, ref, want, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// writeBenchSnapshot is writeBenchJSON over an explicit benchmark set.
// Results accumulate in a same-directory temp file that is renamed over
// path only on success: an unwritable path fails immediately instead of
// after minutes of measurement, and a mid-run failure or interrupt leaves
// any existing snapshot at path untouched.
func writeBenchSnapshot(path string, benches []namedBench, progress io.Writer) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after the success rename
	snap := benchSnapshot{
		Schema:     "juryselect-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       "experiment/* entries run at experiments.QuickConfig scale",
	}
	for _, nb := range benches {
		res := testing.Benchmark(nb.fn)
		if res.N == 0 {
			// testing.Benchmark returns a zero result when the target
			// b.Fatal'ed; fail fast with the name instead of emitting NaN.
			f.Close()
			return fmt.Errorf("benchmark %s failed", nb.name)
		}
		entry := benchEntry{
			Name:        nb.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if len(res.Extra) > 0 {
			entry.Extra = make(map[string]float64, len(res.Extra))
			for unit, v := range res.Extra {
				entry.Extra[unit] = v
			}
		}
		snap.Benchmarks = append(snap.Benchmarks, entry)
		fmt.Fprintf(progress, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
			entry.Name, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		f.Close()
		return err
	}
	data = append(data, '\n')
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
