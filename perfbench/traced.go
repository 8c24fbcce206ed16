package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/core"
	"juryselect/internal/insight"
	"juryselect/internal/jer"
	"juryselect/internal/lifecycle"
	"juryselect/internal/pool"
	"juryselect/internal/server"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// The traced run measures the per-layer metrics in two parts.
//
// Part A is the end-to-end session against a real juryd process, with
// before/after scrapes of /metrics around the open loop and /proc CPU
// counters: queueing, decode/encode, cache, engine memo, WAL and GC
// figures come from juryd's own always-on counters, read as deltas.
//
// Part B assembles the same stack in-process from public constructors,
// as cmd/juryd does, and records spans only at boundaries the benchmark
// owns: the client call, a wrapper around srv.Handler(), timed event
// sinks, the fsync observer, and direct timed calls into the layer
// functions with the workload's own inputs. Spans are recorded in
// alternate seconds only, so the read p50 of traced against untraced
// seconds gives the tracing overhead.

// traceWindow is the length of the alternating traced/untraced windows.
const traceWindow = time.Second

// span is one timed interval at a benchmark-owned boundary. A server
// span's parent is the client span of the same request.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run
// ends.
type recorder struct {
	t0     time.Time
	always atomic.Bool // record in every window (the direct calls)
	mu     sync.Mutex
	spans  []span
	fsync  []float64 // fsync latencies (ms) from the WAL's observer
}

// on reports whether t falls in a traced window.
func (r *recorder) on(t time.Time) bool {
	return r.always.Load() || t.After(r.t0) && (t.Sub(r.t0)/traceWindow)%2 == 0
}

func (r *recorder) add(name string, id, parent uint64, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name, id, parent, start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// durations returns the durations (µs) of every span with the name.
func (r *recorder) durationsUS(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// timedSink wraps an event sink with a span per event.
type timedSink struct {
	next tasks.EventSink
	rec  *recorder
	name string
}

func (t timedSink) TaskEvent(ev tasks.Event) {
	start := time.Now()
	t.next.TaskEvent(ev)
	if t.rec.on(start) {
		t.rec.add(t.name, 0, 0, start, time.Now())
	}
}

// stack is the in-process juryd of part B.
type stack struct {
	store *tasks.Store
	eng   *jury.Engine
	addr  string
	stop  func() // closes the listener and joins the background loops
}

// newStack wires engine, insight, lifecycle, SLO, task store, watchdog
// and server the way cmd/juryd does at its default flags, with the
// benchmark's timed wrappers at the sink, fsync and handler boundaries.
func newStack(dir string, rec *recorder) (*stack, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	eng := jury.NewEngine(jury.BatchOptions{})
	ins := insight.New(0)
	lce := lifecycle.New(0)
	slo := lifecycle.NewSLO([]lifecycle.Objective{
		{Name: "verdict-latency", SLI: lifecycle.SLIVerdictLatency, Target: 0.99, ThresholdNS: time.Minute.Nanoseconds()},
		{Name: "task-expiry", SLI: lifecycle.SLIExpiredRate, Target: 0.99},
		{Name: "http-availability", SLI: lifecycle.SLIHTTP5xx, Target: 0.999},
		{Name: "wal-fsync", SLI: lifecycle.SLIWALFsync, Target: 0.999, ThresholdNS: (50 * time.Millisecond).Nanoseconds()},
	}, lifecycle.DefaultBurnWindows(), nil, logger)
	lce.AttachSLO(slo)
	store, err := tasks.Open(tasks.Config{
		Dir:    dir,
		Sync:   tasks.SyncBatch,
		Engine: eng,
		Events: tasks.Sinks(timedSink{ins, rec, "insight.event"}, timedSink{lce, rec, "lifecycle.event"}),
		FsyncObserver: func(ns int64) {
			slo.ObserveFsync(ns)
			rec.mu.Lock()
			rec.fsync = append(rec.fsync, float64(ns)/1e6)
			rec.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Engine:    eng,
		Tasks:     store,
		Insight:   ins,
		Lifecycle: lce,
		SLO:       slo,
		Watchdog:  lifecycle.NewWatchdog(store, 0, time.Second),
		Logger:    logger,
	})
	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		if rec.on(start) {
			id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64) // absent on set-up requests
			rec.add("server.handler", 0, id, start, time.Now())
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close() //nolint:errcheck
		return nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) //nolint:errcheck // ErrServerClosed on stop
	}()
	// The sweeper and the SLO evaluator run as in cmd/juryd.
	quit := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		sweep, eval := time.NewTicker(time.Second), time.NewTicker(10*time.Second)
		defer sweep.Stop()
		defer eval.Stop()
		for {
			select {
			case <-quit:
				return
			case <-sweep.C:
				store.Sweep(time.Now().UTC()) //nolint:errcheck // a failed sweep shows in the checks
			case <-eval.C:
				srv.PollSLO()
				slo.Evaluate(time.Now().UTC())
			}
		}
	}()
	st := &stack{store: store, eng: eng, addr: ln.Addr().String()}
	st.stop = func() {
		hs.Close() //nolint:errcheck
		<-served
		close(quit)
		bg.Wait()
	}
	return st, nil
}

// runTraced measures the per-layer metrics.
func runTraced(cfg config, w *workload, work string) (*result, error) {
	r := newResult()
	a := &partA{}
	s := &session{cfg: cfg, w: w, observe: a.observe, closedLoop: true}
	if err := s.run(work); err != nil {
		return nil, err
	}
	if err := a.fill(r, s); err != nil {
		return nil, err
	}
	// Part B's load starts one second from now: stack set-up and pool
	// preload finish before it, and recorded windows count from it.
	rec := &recorder{t0: time.Now().Add(time.Second)}
	b, err := runPartB(cfg, w, filepath.Join(work, "inproc"), rec)
	if err != nil {
		return nil, err
	}
	b.fill(r, rec)
	r.attempted = len(s.open) + len(s.closed) + s.checked + b.attempted
	r.failed = s.st.failures + b.failed
	r.correct = r.failed == 0
	r.notes = append(r.notes, s.st.failMsgs...)
	r.notes = append(r.notes, b.notes...)
	if err := writeSpans(cfg, w, rec); err != nil {
		return nil, err
	}
	return r, nil
}

// partA holds the scrapes and CPU counters around the open loop.
type partA struct {
	before, after     *metricsSnap
	selfCPU, jurydCPU [2]time.Duration
	diskBytes         int64
}

func (a *partA) observe(after bool, j *juryd, c *client) error {
	buf := new(bytes.Buffer)
	status, err := c.do(http.MethodGet, "/metrics", nil, buf, 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", status)
	}
	m, err := parseMetrics(buf.Bytes())
	if err != nil {
		return err
	}
	i := 0
	if after {
		i = 1
		a.after = m
	} else {
		a.before = m
	}
	if a.selfCPU[i], err = cpuTime("self"); err != nil {
		return err
	}
	if a.jurydCPU[i], err = cpuTime(strconv.Itoa(j.cmd.Process.Pid)); err != nil {
		return err
	}
	if after {
		a.diskBytes, err = dirBytes(j.dir)
	}
	return err
}

func (a *partA) fill(r *result, s *session) error {
	if a.before == nil || a.after == nil {
		return errors.New("traced run: /metrics scrapes missing")
	}
	d := metricsDelta{a.before, a.after}
	ops := float64(len(s.open))
	var lags []float64
	for _, x := range s.open {
		if x.at >= warmup {
			lags = append(lags, float64(x.lag)/float64(time.Millisecond))
		}
	}
	reads, writes := openLatencies(s.open)

	r.set("client.read_p99_ms", quantile(reads, 0.99), "ms")
	r.set("client.write_p50_ms", quantile(writes, 0.50), "ms")
	r.set("client.write_p99_ms", quantile(writes, 0.99), "ms")
	r.set("client.peak_rps", median(throughputWindows(s.closed, s.closedW)), "1/s")
	r.set("client.reads", float64(len(reads)), "count")
	r.set("client.writes", float64(len(writes)), "count")
	r.set("loadgen.send_lag_p99_ms", quantile(lags, 0.99), "ms")
	r.set("loadgen.cpu_ms_per_op", ratio(ms(a.selfCPU[1]-a.selfCPU[0]), ops), "ms")
	r.set("juryd.recover_s", median(durations(s.recov)), "s")
	r.set("juryd.cpu_ms_per_op", ratio(ms(a.jurydCPU[1]-a.jurydCPU[0]), ops), "ms")
	r.set("runtime.gc_per_kop", ratio(float64(a.after.Runtime.NumGC-a.before.Runtime.NumGC), ops/1000), "count")

	handlerNS, requests := d.handlerNS()
	r.set("server.requests", float64(requests), "count")
	r.set("server.handler_ms", ratio(handlerNS, float64(requests))/1e6, "ms")
	r.set("server.engine_share", ratio(d.stageTotalNS("engine"), handlerNS), "ratio")
	r.set("server.store_share", ratio(d.stageTotalNS("store"), handlerNS), "ratio")
	r.set("server.queue_wait_ms", d.stageMeanNS("queue_wait")/1e6, "ms")
	r.set("server.shed_ratio", ratio(float64(a.after.Shed-a.before.Shed), float64(requests)), "ratio")
	r.set("server.decode_us", d.stageMeanNS("decode")/1e3, "us")
	r.set("server.encode_us", d.stageMeanNS("encode")/1e3, "us")
	selects := float64(a.after.Selections - a.before.Selections)
	r.set("server.selects", selects, "count")
	r.set("server.select_cache.hit_ratio", ratio(float64(a.after.SelectCache.Hits-a.before.SelectCache.Hits), selects), "ratio")
	r.set("server.select_cache.collapsed_ratio", ratio(float64(a.after.SelectCache.Collapsed-a.before.SelectCache.Collapsed), selects), "ratio")
	evals := float64(a.after.EngineEvaluations - a.before.EngineEvaluations)
	hits := float64(a.after.EngineCacheHits - a.before.EngineCacheHits)
	r.set("engine.lookups", evals+hits, "count")
	r.set("engine.memo_hit_ratio", ratio(hits, evals+hits), "ratio")

	tb, ta := a.after.Tasks, a.before.Tasks
	appends, fsyncs, wait := d.walEpoch()
	mutations := float64(tb.Creates - ta.Creates + tb.Votes - ta.Votes)
	r.set("tasks.store_us", d.stageMeanNS("store")/1e3, "us")
	r.set("tasks.wal_wait_ms", wait/1e6, "ms")
	r.set("tasks.wal_appends", float64(appends), "count")
	r.set("tasks.wal_fsyncs", float64(fsyncs), "count")
	r.set("tasks.writes_per_fsync", ratio(float64(appends), float64(fsyncs)), "ratio")
	r.set("tasks.mutations", mutations, "count")
	r.set("tasks.shard_contention_ratio", ratio(float64(tb.ShardContention-ta.ShardContention), mutations), "ratio")
	r.set("tasks.compactions", float64(tb.WALCompactions-ta.WALCompactions), "count")
	r.set("tasks.disk_bytes_per_write", ratio(float64(a.diskBytes), float64(a.after.journaled())), "B")
	r.set("tasks.verdicts", float64(s.q.decided), "count")
	r.set("tasks.verdict_error_rate", ratio(float64(s.q.wrong), float64(s.q.decided)), "ratio")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// partB is the in-process traced run's outcome.
type partB struct {
	attempted, failed int
	notes             []string
	readsOn, readsOff []float64
	direct            map[string][]float64 // direct-call durations by layer metric
	evalsPerSelect    []float64
	replayRate        float64
}

// partBShare is part B's load window as a share of --seconds.
const partBShare = 0.5

func runPartB(cfg config, w *workload, dir string, rec *recorder) (*partB, error) {
	b := &partB{direct: map[string][]float64{}}
	st, err := newStack(dir, rec)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			st.stop()
			st.store.Close() //nolint:errcheck
		}
	}()
	g := newGen(w, cfg.seed)
	window := time.Duration(float64(time.Duration(cfg.seconds)*time.Second) * partBShare)
	roots := g.schedule(window)
	c := newClient(st.addr, workers())
	defer c.close()
	if err := preload(c, preloadBodies(g)); err != nil {
		return nil, err
	}

	// The open loop, with client spans joined to the handler spans.
	rs := newRunState(g)
	ph := newPhase(c, rs, workers())
	ph.hook = func(o *op, id uint64, send, done time.Time, ok bool) {
		if rec.on(send) {
			rec.add("client."+o.kind.String(), id, 0, send, done)
		}
	}
	for _, o := range roots {
		ph.pushLocked(o)
	}
	start := rec.t0
	samples := ph.run(start, start.Add(window+drainCap))
	for _, x := range samples {
		if !x.ok || x.kind.write() || x.at < warmup {
			continue
		}
		ms := float64(x.lat) / float64(time.Millisecond)
		if rec.on(start.Add(x.at)) {
			b.readsOn = append(b.readsOn, ms)
		} else {
			b.readsOff = append(b.readsOff, ms)
		}
	}
	b.attempted = len(samples) + rs.checkSamples()
	b.failed = rs.failures
	b.notes = rs.failMsgs

	// Direct timed calls into the layers, with this workload's inputs.
	rec.always.Store(true)
	if err := b.directCalls(g, roots, st, rec); err != nil {
		return nil, err
	}

	// Recovery: close the store and time tasks.Open on its directory.
	st.stop()
	if err := st.store.Close(); err != nil {
		return nil, err
	}
	stopped = true
	t0 := time.Now()
	reopened, err := tasks.Open(tasks.Config{Dir: dir, Sync: tasks.SyncBatch})
	if err != nil {
		return nil, err
	}
	openDur := time.Since(t0)
	rec.add("direct.tasks.open", 0, 0, t0, t0.Add(openDur))
	b.replayRate = ratio(float64(reopened.Recovery().Records), openDur.Seconds())
	t0 = time.Now()
	err = reopened.Compact()
	rec.add("direct.tasks.compact", 0, 0, t0, time.Now())
	b.direct["tasks.compact_ms"] = append(b.direct["tasks.compact_ms"], ms(time.Since(t0)))
	if cerr := reopened.Close(); err == nil {
		err = cerr
	}
	return b, err
}

// directBudget bounds the time spent on each kind of direct call.
const directBudget = 1500 * time.Millisecond

// selectInput is one selection the workload asks for.
type selectInput struct {
	sorted []jury.Juror // ε-sorted candidates
	model  string
	budget float64
}

func (b *partB) directCalls(g *gen, roots []op, st *stack, rec *recorder) error {
	ctx := context.Background()
	var inputs []selectInput
	var patches []op
	for i := range roots {
		o := &roots[i]
		switch o.kind {
		case opSelectPool, opCreate:
			p, ok := st.store.Pools().Get(o.pool)
			if !ok {
				return fmt.Errorf("pool %q missing", o.pool)
			}
			m := o.model
			if o.kind == opCreate {
				m = "pay"
			}
			inputs = append(inputs, selectInput{p.Sorted(), m, o.budget})
		case opSelectInline:
			js := make([]jury.Juror, len(o.cands.eps))
			for k := range js {
				js[k] = jury.Juror{ID: "c" + strconv.Itoa(k), ErrorRate: o.cands.eps[k], Cost: o.cands.cost[k]}
			}
			inputs = append(inputs, selectInput{core.SortedByErrorRate(js), o.model, o.budget})
		case opPatch:
			patches = append(patches, *o)
		}
	}
	if len(inputs) == 0 {
		return errors.New("workload has no selection inputs")
	}
	hasAltr := false
	for _, in := range inputs {
		hasAltr = hasAltr || in.model == "altr"
	}
	if !hasAltr { // task-lifecycle selects pay only; altr on its pools
		for _, p := range g.w.pools {
			pl, _ := st.store.Pools().Get(p)
			inputs = append(inputs, selectInput{pl.Sorted(), "altr", 0})
		}
	}

	// jury.Engine selection: what a select or a task create runs.
	if err := timeEach(inputs, func(in selectInput) error {
		t0 := time.Now()
		var err error
		if in.model == "altr" {
			_, err = st.eng.SelectAltruisticSnapshot(ctx, in.sorted)
		} else {
			_, err = st.eng.SelectBudgetedContext(ctx, in.sorted, in.budget)
		}
		b.record(rec, "engine.us_per_select", t0, 1e3)
		return err
	}); err != nil {
		return err
	}
	// core selection without the engine memo; the pay greedy's exact JER
	// checks go through a counting jer.Compute.
	if err := timeEach(inputs, func(in selectInput) error {
		t0 := time.Now()
		if in.model == "altr" {
			sel, err := core.SelectAltr(in.sorted, core.AltrOptions{Incremental: true, Presorted: true})
			b.record(rec, "core.altr_ms", t0, 1e6)
			b.evalsPerSelect = append(b.evalsPerSelect, float64(sel.Evaluations))
			return err
		}
		evals := 0
		_, err := core.SelectPay(in.sorted, core.PayOptions{Budget: in.budget, Evaluate: func(rates []float64) (float64, error) {
			evals++
			return jer.Compute(rates, jer.Auto)
		}})
		b.record(rec, "core.pay_ms", t0, 1e6)
		b.evalsPerSelect = append(b.evalsPerSelect, float64(evals))
		return err
	}); err != nil {
		return err
	}
	// jer.Compute by jury size: ε-sorted prefixes of the largest inputs.
	for _, band := range jerBands {
		var juries [][]float64
		for _, in := range inputs {
			if len(in.sorted) >= band.n {
				rates := make([]float64, band.n)
				for k := range rates {
					rates[k] = in.sorted[k].ErrorRate
				}
				juries = append(juries, rates)
			}
		}
		if err := timeEach(juries, func(rates []float64) error {
			t0 := time.Now()
			_, err := jer.Compute(rates, jer.Auto)
			b.record(rec, band.name, t0, 1e3)
			return err
		}); err != nil {
			return err
		}
	}
	// Pool snapshot reads and journaled pool patches.
	pools := g.w.pools
	if err := timeEach(make([]int, 4096), func(i int) error {
		t0 := time.Now()
		p, ok := st.store.Pools().Get(pools[i%len(pools)])
		if !ok || len(p.Sorted()) == 0 {
			return errors.New("pool snapshot missing")
		}
		b.record(rec, "pool.snapshot_us", t0, 1e3)
		return nil
	}); err != nil {
		return err
	}
	if len(patches) == 0 { // task-lifecycle sends none; patch its pools
		src := g.src.Split("direct-patches")
		for i := 0; i < 64; i++ {
			p := pools[i%len(pools)]
			patches = append(patches, op{kind: opPatch, pool: p, body: g.patchBody(src, p)})
		}
	}
	if err := timeEach(patches, func(o op) error {
		var req server.PatchJurorsRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return err
		}
		ups := make([]pool.JurorUpdate, len(req.Updates))
		for k, u := range req.Updates {
			ups[k] = pool.JurorUpdate{ID: u.ID, Votes: &pool.VoteObservation{Wrong: u.Votes.Wrong, Total: u.Votes.Total}}
		}
		t0 := time.Now()
		_, err := st.store.PatchPool(o.pool, ups)
		b.record(rec, "pool.patch_ms", t0, 1e6)
		return err
	}); err != nil {
		return err
	}
	// A few tasks through the store directly, voted to a verdict, so the
	// event sinks are timed on every workload.
	for i := 0; i < 16; i++ {
		v, err := st.store.Create(ctx, tasks.Spec{Pool: pools[i%len(pools)], Strategy: "pay",
			Budget: taskBudgets[i%len(taskBudgets)], TargetConfidence: targetConfidence})
		if err != nil {
			return err
		}
		for _, j := range v.Jurors {
			if _, err := st.store.Vote(ctx, v.ID, j.ID, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// jerBands are the jury sizes jer.us_per_eval is reported at.
var jerBands = []struct {
	n    int
	name string
}{{31, "jer.us_per_eval.n31"}, {255, "jer.us_per_eval.n255"}, {1001, "jer.us_per_eval.n1001"}}

// timeEach calls f on successive inputs, cycling, until directBudget
// passes (at least once each, at most 4 rounds).
func timeEach[T any](inputs []T, f func(T) error) error {
	deadline := time.Now().Add(directBudget)
	for round := 0; round < 4; round++ {
		for i, in := range inputs {
			if err := f(in); err != nil {
				return err
			}
			if (round > 0 || i >= 8) && time.Now().After(deadline) {
				return nil
			}
		}
	}
	return nil
}

// record adds a direct-call span ending now and its duration, in the
// metric's unit (div nanoseconds per unit).
func (b *partB) record(rec *recorder, name string, t0 time.Time, div float64) {
	now := time.Now()
	rec.add("direct."+name, 0, 0, t0, now)
	b.direct[name] = append(b.direct[name], float64(now.Sub(t0).Nanoseconds())/div)
}

func (b *partB) fill(r *result, rec *recorder) {
	avg := func(name string) float64 { return mean(b.direct[name]) }
	// net overhead: client span minus the handler span of the same request.
	rec.mu.Lock()
	handler := map[uint64]int64{}
	for _, s := range rec.spans {
		if s.Name == "server.handler" && s.Parent != 0 {
			handler[s.Parent] = s.End - s.Start
		}
	}
	var overhead []float64
	for _, s := range rec.spans {
		if h, ok := handler[s.ID]; ok && s.ID != 0 && s.Name != "server.handler" {
			overhead = append(overhead, float64(s.End-s.Start-h)/1e6)
		}
	}
	fsync := append([]float64(nil), rec.fsync...)
	rec.mu.Unlock()

	r.set("net.overhead_p50_ms", quantile(overhead, 0.5), "ms")
	r.set("engine.us_per_select", avg("engine.us_per_select"), "us")
	r.set("core.altr_ms", avg("core.altr_ms"), "ms")
	r.set("core.pay_ms", avg("core.pay_ms"), "ms")
	r.set("jer.evals_per_select", median(b.evalsPerSelect), "count")
	for _, band := range jerBands {
		r.set(band.name, median(b.direct[band.name]), "us")
	}
	r.set("pool.snapshot_us", avg("pool.snapshot_us"), "us")
	r.set("pool.patch_ms", avg("pool.patch_ms"), "ms")
	r.set("tasks.fsync_ms_p50", quantile(fsync, 0.5), "ms")
	r.set("tasks.fsync_ms_p99", quantile(fsync, 0.99), "ms")
	r.set("tasks.compact_ms", avg("tasks.compact_ms"), "ms")
	r.set("tasks.replay_records_per_s", b.replayRate, "1/s")
	r.set("insight.event_us", mean(rec.durationsUS("insight.event")), "us")
	r.set("lifecycle.event_us", mean(rec.durationsUS("lifecycle.event")), "us")
	r.set("trace.overhead_ratio", ratio(quantile(b.readsOn, 0.5), quantile(b.readsOff, 0.5)), "ratio")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// writeSpans writes the run's spans as JSON lines beside the scratch
// directories, for attribution by hand.
func writeSpans(cfg config, w *workload, rec *recorder) error {
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	rec.mu.Lock()
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			rec.mu.Unlock()
			f.Close()
			return err
		}
	}
	rec.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
