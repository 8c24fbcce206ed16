package server

import (
	"bytes"
	"expvar"
	"net/http"
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/lifecycle"
	"juryselect/internal/obs"
	"juryselect/internal/tasks"
)

// metrics holds the server's counters: expvar vars owned by the Server
// rather than published to the process-global expvar registry, so many
// servers can coexist in one process (tests, embedded uses). collect
// reads them, with every other metric source, at scrape time.
type metrics struct {
	requests     expvar.Int // HTTP requests accepted by any /v1 handler
	selections   expvar.Int // successful select items (single + batch)
	batchSelects expvar.Int // successful /v1/select/batch responses
	jerServed    expvar.Int // successful /v1/jer responses
	poolWrites   expvar.Int // successful pool PUT/PATCH/DELETE
	taskCreates  expvar.Int // successful POST /v1/tasks
	taskVotes    expvar.Int // successful votes/declines (single + batch)
	batchVotes   expvar.Int // successful /v1/tasks/{id}/votes/batch responses
	taskVerdicts expvar.Int // votes that closed a task with a verdict
	shed         expvar.Int // requests rejected 429 by admission control

	queued   atomic.Int64 // requests waiting for an inflight slot
	draining atomic.Bool  // drain signal for /healthz
}

// healthResponse is the body of GET /healthz. The WAL fields read the
// task store's journal (both 0 when it is memory-only): commit-queue
// depth is the early congestion signal (records appended but not yet
// durable), and the last-recovery duration tells an operator what a
// restart costs.
type healthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Pools    int    `json:"pools"`
	Inflight int    `json:"inflight"`
	Queued   int    `json:"queued"`

	WALCommitQueueDepth int64 `json:"wal_commit_queue_depth"`
	LastRecoveryNS      int64 `json:"last_recovery_ns"`

	// Stall is the sweep watchdog's verdict, present when one is
	// configured: tasks stuck past their juror timeout with no sweeper
	// progress flip Status to "degraded" (still 200 — the process serves;
	// an operator should look at the sweeper).
	Stall *lifecycle.StallReport `json:"stall,omitempty"`
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once the
// process is draining, so load balancers stop routing new work while
// in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:              "ok",
		Pools:               s.tasks.Pools().Len(),
		Inflight:            len(s.sem),
		Queued:              int(s.m.queued.Load()),
		WALCommitQueueDepth: s.tasks.Stats().WAL.QueueDepth,
		LastRecoveryNS:      s.tasks.Recovery().Duration.Nanoseconds(),
	}
	if s.watchdog != nil {
		rep := s.watchdog.Check(time.Now().UTC())
		resp.Stall = &rep
		if !rep.Healthy {
			resp.Status = "degraded"
		}
	}
	status := http.StatusOK
	if s.m.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleMetrics serves GET /metrics: the scrape as one JSON document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.collect())
}

// handleMetricsProm serves GET /metrics/prometheus: the same scrape in
// the Prometheus text exposition format (0.0.4), without any client
// library dependency. It exports a subset of the /metrics values,
// label-structured: per-endpoint request, error and latency families,
// per-stage latencies, the select-cache, task, WAL, insight, lifecycle
// and SLO families, and process gauges. Values only /metrics serves:
// requests, batch_selects, jer_served, pool_writes, batch_votes, the
// errors totals, max_inflight, max_queue, engine_inflight,
// engine_workers, the task creates/votes/verdicts and the WAL's
// p99/replay/compaction/shard/batch fields, the insight and lifecycle
// counters without a juryd_ family, runtime.num_gc and
// runtime.gc_pause_p99_ns (Prometheus gets the whole GC pause
// histogram instead). juryd_traces_total is the one exported value
// /metrics lacks.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	p := obs.NewProm(buf)
	s.collect().WriteProm(p)
	if gc := gcPauses(); gc != nil {
		p.Header("juryd_gc_pause_seconds", "histogram", "Stop-the-world GC pause durations.")
		var sum float64
		for i, c := range gc.Counts {
			// Approximate the sum with bucket lower bounds; the runtime
			// does not track an exact pause sum at this granularity.
			if c > 0 && i < len(gc.Buckets) && gc.Buckets[i] > 0 && gc.Buckets[i] < maxFiniteBound {
				sum += float64(c) * gc.Buckets[i]
			}
		}
		p.HistogramSeconds("juryd_gc_pause_seconds", "", gc.Buckets[1:], gc.Counts, sum)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) //nolint:errcheck
}

// collect reads every metric source once and records each value under
// its /metrics JSON path and, when exported, its Prometheus family and
// labels. Both metric endpoints render the one scrape it returns, so a
// value cannot differ between the two documents of one scrape, and a
// total and its parts (select-cache entries and their shards; errors and
// the per-endpoint 5xx counts) come from the same reading.
func (s *Server) collect() *obs.Scrape {
	sc := obs.NewScrape()
	reqs := sc.Family("juryd_requests_total", "counter", "Requests by endpoint.")
	errs := sc.Family("juryd_errors_total", "counter", "Error responses by endpoint and class (4xx excludes shed 429s).")
	shed := sc.Family("juryd_shed_total", "counter", "Requests shed 429 by admission control.")
	lat := sc.Family("juryd_request_duration_seconds", "histogram", "Request latency by endpoint.")
	stages := sc.Family("juryd_stage_duration_seconds", "histogram", "Internal stage latency across requests.")
	var errors4xx, errors5xx int64
	for i := range s.eps {
		em, name := &s.eps[i], endpointNames[i]
		path, l := "endpoints."+name+".", `endpoint="`+name+`"`
		e4, e5 := em.errors4xx.Load(), em.errors5xx.Load()
		errors4xx += e4
		errors5xx += e5
		sc.Add(path+"requests", em.requests.Load(), reqs, l)
		sc.Add(path+"errors_4xx", e4, errs, l+`,class="4xx"`)
		sc.Add(path+"errors_5xx", e5, errs, l+`,class="5xx"`)
		sc.Add(path+"latency", em.lat.Snapshot(), lat, l)
	}
	for i := range s.stages {
		name := obs.Stage(i).String()
		sc.Add("stages."+name, s.stages[i].Snapshot(), stages, `stage="`+name+`"`)
	}
	sc.Add("shed", s.m.shed.Value(), shed, "")
	// errors is the 5xx total under its original name, derived from the
	// same per-endpoint reading as errors_5xx. Sheds count only under
	// shed, so 4xx excludes 429s.
	sc.Set("errors", errors5xx)
	sc.Set("errors_4xx", errors4xx)
	sc.Set("errors_5xx", errors5xx)
	sc.Set("requests", s.m.requests.Value())
	sc.Set("batch_selects", s.m.batchSelects.Value())
	sc.Set("jer_served", s.m.jerServed.Value())
	sc.Set("pool_writes", s.m.poolWrites.Value())
	sc.Set("batch_votes", s.m.batchVotes.Value())
	sc.Set("max_inflight", s.maxInflight)
	sc.Set("max_queue", s.maxQueue)
	sc.Add("inflight", len(s.sem), sc.Family("juryd_inflight", "gauge", "Evaluation requests currently executing."), "")
	sc.Add("queued", s.m.queued.Load(), sc.Family("juryd_queued", "gauge", "Requests waiting for an inflight slot."), "")
	sc.Add("pools", s.tasks.Pools().Len(), sc.Family("juryd_pools", "gauge", "Resident juror pools."), "")
	sc.Add("selections", s.m.selections.Value(),
		sc.Family("juryd_selections_total", "counter", "Successful select items (single and batch)."), "")

	est := s.eng.Stats()
	sc.Add("engine_evaluations", est.Evaluations,
		sc.Family("juryd_engine_evaluations_total", "counter", "JER evaluations computed by the engine."), "")
	sc.Add("engine_cache_hits", est.CacheHits,
		sc.Family("juryd_engine_cache_hits_total", "counter", "Engine evaluation cache hits."), "")
	sc.Set("engine_inflight", est.Inflight)
	sc.Set("engine_workers", s.eng.Workers())

	if s.cache != nil {
		// hits, misses and collapsed are the memo's Hit, Computed and
		// Joined outcomes; hit_ratio is the share of probes that skipped
		// the engine, 0 before any probe.
		c, lens := s.cache.Counts(), s.cache.ShardLens()
		events := sc.Family("juryd_select_cache_events_total", "counter", "Select response cache events.")
		sc.Add("select_cache.hits", c.Hits, events, `event="hit"`)
		sc.Add("select_cache.misses", c.Computed, events, `event="miss"`)
		sc.Add("select_cache.collapsed", c.Joined, events, `event="collapsed"`)
		var ratio float64
		if probes := c.Hits + c.Computed + c.Joined; probes > 0 {
			ratio = float64(c.Hits) / float64(probes)
		}
		sc.Add("select_cache.hit_ratio", ratio,
			sc.Family("juryd_select_cache_hit_ratio", "gauge", "Fraction of cache probes served from a resident entry."), "")
		entries := sc.Family("juryd_select_cache_entries", "gauge", "Resident select cache entries.")
		shards := sc.Family("juryd_select_cache_shard_entries", "gauge", "Resident select cache entries per shard.")
		total := 0
		for i, n := range lens {
			total += n
			sc.Add("", n, shards, `shard="`+strconv.Itoa(i)+`"`)
		}
		sc.Add("select_cache.entries", total, entries, "")
		// A skewed shard_entries means hot pools hash onto one shard's LRU.
		sc.Set("select_cache.shard_entries", lens)
	}

	ts := s.tasks.Stats()
	status := sc.Family("juryd_tasks", "gauge", "Tasks by lifecycle status.")
	sc.Add("tasks.open", ts.Open, status, `status="open"`)
	sc.Add("tasks.awaiting_votes", ts.AwaitingVotes, status, `status="awaiting_votes"`)
	sc.Add("tasks.decided", ts.Decided, status, `status="decided"`)
	sc.Add("tasks.expired", ts.Expired, status, `status="expired"`)
	sc.Set("tasks.creates", s.m.taskCreates.Value())
	sc.Set("tasks.votes", s.m.taskVotes.Value())
	sc.Set("tasks.verdicts", s.m.taskVerdicts.Value())
	sc.Add("tasks.wal_appends", ts.WAL.Appends, sc.Family("juryd_wal_appends_total", "counter", "WAL records appended."), "")
	sc.Add("tasks.wal_fsyncs", ts.WAL.Fsyncs, sc.Family("juryd_wal_fsyncs_total", "counter", "WAL fsync calls."), "")
	sc.Add("tasks.wal_commit_queue_depth", ts.WAL.QueueDepth,
		sc.Family("juryd_wal_commit_queue_depth", "gauge", "Appended records not yet durable."), "")
	sc.Add("tasks.wal_fsync", ts.WAL.FsyncHist,
		sc.Family("juryd_wal_fsync_duration_seconds", "histogram", "WAL fsync call latency."), "")
	sc.Add("tasks.wal_durable_wait", ts.WAL.DurableWaitHist,
		sc.Family("juryd_wal_durable_wait_seconds", "histogram", "Append-to-durable wait seen by writers."), "")
	// wal_fsync_p99_ns is kept for dashboards; wal_fsync holds the
	// distribution it derives from. Bucket i of wal_fsync_batch_hist
	// counts fsyncs covering ≤ 2^i records (the last is open-ended):
	// load in bucket 0 means the group commit is not grouping.
	sc.Set("tasks.wal_fsync_p99_ns", ts.WAL.FsyncP99NS)
	sc.Set("tasks.wal_replay_records", ts.WAL.ReplayRecords)
	sc.Set("tasks.wal_replay_ns", s.tasks.Recovery().Duration.Nanoseconds())
	sc.Set("tasks.wal_compactions", ts.Compactions)
	// Every store lock is held through a compaction, so its wall time
	// is also how long writers stalled.
	sc.Add("tasks.compact", ts.CompactHist,
		sc.Family("juryd_tasks_compact_duration_seconds", "histogram", "Snapshot compaction wall time; writers stall throughout."), "")
	sc.Set("tasks.wal_fsync_batch_hist", ts.WAL.FsyncBatchSizes[:])
	sc.Set("tasks.shards", ts.Shards)
	sc.Set("tasks.shard_contention", ts.ShardContention)

	if s.insight != nil {
		// Counters only: the full profiles live behind /v1/insight/*.
		st := s.insight.Stats()
		addTotals(sc, "insight", st.Totals, st.UnknownTaskEvents)
		sc.Add("insight.jurors_tracked", st.JurorsTracked,
			sc.Family("juryd_insight_jurors_tracked", "gauge", "Jurors with insight profiles."), "")
		sc.Add("insight.pairs_tracked", st.PairsTracked,
			sc.Family("juryd_insight_pairs_tracked", "gauge", "Co-vote pairs tracked for agreement analysis."), "")
		sc.Add("insight.pairs_dropped", st.PairsDropped,
			sc.Family("juryd_insight_pairs_dropped_total", "counter", "Co-vote pairs dropped at the tracker cap."), "")
		sc.Add("insight.calibration_samples", st.CalibrationSamples,
			sc.Family("juryd_insight_calibration_samples_total", "counter", "Verdicts folded into the JER reliability diagram."), "")
		sc.Add("insight.brier", st.Brier,
			sc.Family("juryd_insight_brier_score", "gauge", "Brier score of predicted JER against realized error."), "")
	}

	if s.lifecycle != nil {
		// Counters only: timelines and aggregates live behind
		// /v1/tasks/{id}/timeline and /v1/lifecycle.
		st := s.lifecycle.Stats()
		addTotals(sc, "lifecycle", st.Totals, st.UnknownTaskEvents)
		sc.Add("lifecycle.replacements", st.Replacements,
			sc.Family("juryd_lifecycle_replacements_total", "counter", "Replacement invites observed after task creation."), "")
		sc.Add("lifecycle.timelines_retained", st.TimelinesRetained,
			sc.Family("juryd_lifecycle_timelines_retained", "gauge", "Task timelines resident in the engine."), "")
		sc.Add("lifecycle.timelines_evicted", st.TimelinesEvicted,
			sc.Family("juryd_lifecycle_timelines_evicted_total", "counter", "Closed timelines evicted at the retention cap."), "")
	}

	if s.slo != nil {
		// One evaluation, over the HTTP counters as of this scrape, feeds
		// the JSON block and every juryd_slo_* family. Every value is
		// finite by construction (burn is 0 on an empty window), which
		// the exposition parser requires.
		s.PollSLO()
		snap := s.slo.Snapshot(time.Now().UTC())
		sc.Set("slo", snap)
		events := sc.Family("juryd_slo_events_total", "counter", "SLI events by objective and classification.")
		target := sc.Family("juryd_slo_target", "gauge", "Objective target (good fraction).")
		burn := sc.Family("juryd_slo_burn_rate", "gauge", "Error-budget burn rate by objective and alerting window.")
		budget := sc.Family("juryd_slo_budget_remaining", "gauge", "Unspent error budget over the slow-long window.")
		alert := sc.Family("juryd_slo_alert", "gauge", "Burn-rate alert state (1 = firing).")
		trips := sc.Family("juryd_slo_alert_trips_total", "counter", "Burn-rate alert activations since start.")
		for _, st := range snap.Objectives {
			l := `objective="` + st.Name + `"`
			sc.Add("", st.Good, events, l+`,class="good"`)
			sc.Add("", st.Bad, events, l+`,class="bad"`)
			sc.Add("", st.Target, target, l)
			sc.Add("", st.BurnFastShort, burn, l+`,window="fast_short"`)
			sc.Add("", st.BurnFastLong, burn, l+`,window="fast_long"`)
			sc.Add("", st.BurnSlowShort, burn, l+`,window="slow_short"`)
			sc.Add("", st.BurnSlowLong, burn, l+`,window="slow_long"`)
			sc.Add("", st.BudgetRemaining, budget, l)
			sc.Add("", st.FastAlert, alert, l+`,severity="fast"`)
			sc.Add("", st.SlowAlert, alert, l+`,severity="slow"`)
			sc.Add("", st.FastTrips, trips, l+`,severity="fast"`)
			sc.Add("", st.SlowTrips, trips, l+`,severity="slow"`)
		}
	}

	// build identifies the binary; uptime is the age of this Server (in
	// juryd, of the process — one Server per process).
	bi := buildInfo()
	sc.Set("build", bi)
	sc.Add("", 1, sc.Family("juryd_build_info", "gauge", "Build metadata of the running binary; value is always 1."),
		`version="`+bi.Version+`",go="`+bi.GoVersion+`",revision="`+bi.VCSRevision+`"`)
	sc.Add("uptime_seconds", time.Since(s.start).Seconds(),
		sc.Family("juryd_uptime_seconds", "gauge", "Seconds since this server was constructed."), "")
	sc.Add("", s.ring.Total(), sc.Family("juryd_traces_total", "counter", "Request traces captured into the debug ring."), "")

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sc.Add("runtime.goroutines", runtime.NumGoroutine(), sc.Family("juryd_goroutines", "gauge", "Live goroutines."), "")
	sc.Add("runtime.heap_alloc_bytes", int64(ms.HeapAlloc),
		sc.Family("juryd_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects."), "")
	sc.Set("runtime.num_gc", ms.NumGC)
	sc.Set("runtime.gc_pause_p99_ns", float64HistQuantile(gcPauses(), 0.99)*1e9)
	return sc
}

// addTotals records a derived view's task totals under the view's
// /metrics block, exporting events and the decided and expired counts
// as the juryd_<view>_events_total and juryd_<view>_tasks_total
// families; the rest are JSON only.
func addTotals(sc *obs.Scrape, view string, t tasks.Totals, unknownTaskEvents int64) {
	sc.Add(view+".events", t.Events,
		sc.Family("juryd_"+view+"_events_total", "counter", "Task events consumed by the "+view+" engine."), "")
	outcome := sc.Family("juryd_"+view+"_tasks_total", "counter", "Tasks observed by the "+view+" engine, by outcome.")
	sc.Add(view+".tasks_decided", t.TasksDecided, outcome, `outcome="decided"`)
	sc.Add(view+".tasks_expired", t.TasksExpired, outcome, `outcome="expired"`)
	sc.Set(view+".tasks_created", t.TasksCreated)
	sc.Set(view+".tasks_open", t.TasksOpen)
	sc.Set(view+".votes", t.Votes)
	sc.Set(view+".declines", t.Declines)
	sc.Set(view+".timeouts", t.Timeouts)
	sc.Set(view+".unknown_task_events", unknownTaskEvents)
}

// buildStats identifies the binary serving the metrics: module version,
// Go runtime, and the VCS revision stamped by `go build` when the
// module was built inside a checkout.
type buildStats struct {
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
}

// buildInfo reads the binary's embedded build metadata once; the
// per-scrape cost is a struct copy.
var buildInfo = sync.OnceValue(func() buildStats {
	b := buildStats{
		Version:     "unknown",
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if bi.Main.Version != "" {
		b.Version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			b.VCSRevision = kv.Value
		case "vcs.modified":
			b.VCSModified = kv.Value == "true"
		}
	}
	return b
})

// gcPauses reads the runtime's GC pause histogram (seconds).
func gcPauses() *runtimemetrics.Float64Histogram {
	samples := []runtimemetrics.Sample{{Name: "/gc/pauses:seconds"}}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() != runtimemetrics.KindFloat64Histogram {
		return nil
	}
	return samples[0].Value.Float64Histogram()
}

// float64HistQuantile estimates the q-quantile of a runtime/metrics
// histogram by cumulative bucket walk, returning the matched bucket's
// upper bound (or the last finite bound for the top bucket).
func float64HistQuantile(h *runtimemetrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	lastFinite := 0.0
	for i, c := range h.Counts {
		cum += c
		var hi float64
		if i+1 < len(h.Buckets) {
			hi = h.Buckets[i+1]
		}
		if hi > 0 && hi < maxFiniteBound {
			lastFinite = hi
		}
		if cum >= target {
			if hi >= maxFiniteBound || hi == 0 {
				return lastFinite
			}
			return hi
		}
	}
	return lastFinite
}

const maxFiniteBound = 1e300
