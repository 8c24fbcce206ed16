package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/core"
	"juryselect/internal/dataio"
	"juryselect/internal/insight"
	"juryselect/internal/lifecycle"
	"juryselect/internal/obs"
	"juryselect/internal/pbdist"
	"juryselect/internal/pool"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// Defaults for the zero Config.
const (
	// DefaultMaxQueue is the admission queue bound: evaluation requests
	// beyond MaxInflight wait here; beyond it they are shed with 429.
	DefaultMaxQueue = 64
	// DefaultTimeout is the per-request deadline when the request does
	// not carry one.
	DefaultTimeout = 5 * time.Second
	// DefaultMaxTimeout caps the deadline a request may ask for.
	DefaultMaxTimeout = 30 * time.Second
	// DefaultMaxBodyBytes bounds request bodies (candidate sets of about
	// 100k jurors still fit).
	DefaultMaxBodyBytes = 8 << 20
	// DefaultMaxBatchItems caps how many selects (or votes) one batch
	// request may carry.
	DefaultMaxBatchItems = 256
)

// Config configures a Server. The zero value selects sensible defaults.
type Config struct {
	// Engine is the shared JER engine; nil constructs a default one.
	Engine *jury.Engine
	// Store is the pool store; nil constructs an empty one. When Tasks
	// is set this must be the task store's pool store (or nil, which
	// adopts it automatically).
	Store *pool.Store
	// Tasks is the durable decision-task store. When set, the /v1/tasks
	// endpoints are served and every pool mutation is journaled through
	// it, so a restarted juryd replays pools and tasks together.
	Tasks *tasks.Store
	// Insight is the decision-quality analytics engine. Attach the same
	// engine to the task store (tasks.Config.Events) before Open, so WAL
	// replay and the live tail both feed it; when set, the /v1/insight
	// endpoints are served and /metrics gains an insight block.
	Insight *insight.Engine
	// Lifecycle is the task-timeline reconstructor. Attach it to the task
	// store (tasks.Config.Events, alongside Insight via tasks.Sinks)
	// before Open, so WAL replay rebuilds every timeline on boot; when
	// set, GET /v1/tasks/{id}/timeline and GET /v1/lifecycle are served
	// and /metrics gains a lifecycle block.
	Lifecycle *lifecycle.Engine
	// SLO is the error-budget tracker. When set, GET /v1/slo is served,
	// /metrics gains an slo block, and /metrics/prometheus exports
	// juryd_slo_* series. Feed it via Lifecycle (AttachSLO), the task
	// store's FsyncObserver, and PollSLO on the evaluation ticker.
	SLO *lifecycle.SLO
	// Watchdog flags tasks stuck past their juror timeout with no sweeper
	// progress; when set, /healthz gains a stall block.
	Watchdog *lifecycle.Watchdog
	// MaxInflight bounds concurrently executing evaluation requests
	// (/v1/jer and /v1/select). Zero selects runtime.GOMAXPROCS(0):
	// selection saturates a core, so admitting more in parallel only
	// queues them inside the engine with worse tail latency.
	MaxInflight int
	// MaxQueue bounds how many admitted requests may wait for an
	// inflight slot before the server sheds with 429. Zero selects
	// DefaultMaxQueue; negative disables queueing (immediate shed).
	MaxQueue int
	// DefaultTimeout is the per-request deadline applied when the
	// request carries none. Zero selects DefaultTimeout.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines. Zero selects
	// DefaultMaxTimeout.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Zero selects
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// SelectCacheEntries bounds the version-keyed selection response
	// cache (total entries, LRU-evicted). Selections are pure functions
	// of (pool version, strategy, params), so the cache serves repeat
	// selects against an unchanged pool without touching the engine or
	// the encoder. Zero selects DefaultSelectCacheEntries; negative
	// disables the cache.
	SelectCacheEntries int
	// MaxBatchItems caps the item count of one POST /v1/select/batch or
	// POST /v1/tasks/{id}/votes/batch request. Zero selects
	// DefaultMaxBatchItems.
	MaxBatchItems int
	// SlowRequest logs (and always traces) requests that take at least
	// this long. Zero disables the slow-request log.
	SlowRequest time.Duration
	// TraceEvery samples every Nth request into the trace ring served at
	// GET /debug/traces (1 = every request). Zero disables sampling;
	// slow requests are still captured when SlowRequest is set.
	TraceEvery int
	// TraceRingSize bounds the trace ring (0 = obs.DefaultTraceRing).
	TraceRingSize int
	// Logger receives slow-request warnings; nil selects slog.Default().
	Logger *slog.Logger
}

// Server serves jury selection over HTTP/JSON. Construct with New, mount
// Handler on an http.Server, and share one Server across all connections;
// all methods are safe for concurrent use.
type Server struct {
	eng       *jury.Engine
	store     *pool.Store
	tasks     *tasks.Store
	insight   *insight.Engine
	lifecycle *lifecycle.Engine
	slo       *lifecycle.SLO
	watchdog  *lifecycle.Watchdog
	start     time.Time // process-local construction instant; uptime origin

	maxInflight int
	maxQueue    int
	defTimeout  time.Duration
	maxTimeout  time.Duration
	maxBody     int64
	maxBatch    int

	cache *selectCache  // version-keyed select responses; nil = disabled
	sem   chan struct{} // inflight slots for evaluation requests
	m     metrics
	mux   *http.ServeMux

	// Observability (PR 8): always-on per-endpoint and per-stage latency
	// histograms, plus the sampled trace ring behind /debug/traces.
	eps        [numEndpoints]endpointMetrics
	stages     [obs.NumStages]obs.Histogram
	ring       *obs.TraceRing
	traceSeq   atomic.Int64 // request counter driving 1-in-N sampling
	traceTotal atomic.Int64 // trace IDs
	traceEvery int
	slowNS     int64
	logger     *slog.Logger

	// sloPoll holds the cumulative good and bad totals PollSLO has
	// reported to the http_5xx SLI, so each call feeds only the delta.
	sloPoll struct {
		mu        sync.Mutex
		good, bad int64
	}
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	s := &Server{
		eng:         cfg.Engine,
		store:       cfg.Store,
		tasks:       cfg.Tasks,
		insight:     cfg.Insight,
		lifecycle:   cfg.Lifecycle,
		slo:         cfg.SLO,
		watchdog:    cfg.Watchdog,
		start:       time.Now(),
		maxInflight: cfg.MaxInflight,
		maxQueue:    cfg.MaxQueue,
		defTimeout:  cfg.DefaultTimeout,
		maxTimeout:  cfg.MaxTimeout,
		maxBody:     cfg.MaxBodyBytes,
	}
	if s.tasks != nil {
		// One pool directory and one engine serve selects and tasks: the
		// task store's are authoritative so its journal covers every
		// mutation the handlers apply.
		if s.store == nil {
			s.store = s.tasks.Pools()
		}
		if s.eng == nil {
			s.eng = s.tasks.Engine()
		}
	}
	if s.eng == nil {
		s.eng = jury.NewEngine(jury.BatchOptions{})
	}
	if s.store == nil {
		s.store = pool.NewStore()
	}
	if s.maxInflight <= 0 {
		s.maxInflight = runtime.GOMAXPROCS(0)
	}
	if s.maxQueue == 0 {
		s.maxQueue = DefaultMaxQueue
	} else if s.maxQueue < 0 {
		s.maxQueue = 0
	}
	if s.defTimeout <= 0 {
		s.defTimeout = DefaultTimeout
	}
	if s.maxTimeout <= 0 {
		s.maxTimeout = DefaultMaxTimeout
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	s.maxBatch = cfg.MaxBatchItems
	if s.maxBatch <= 0 {
		s.maxBatch = DefaultMaxBatchItems
	}
	if cfg.SelectCacheEntries >= 0 {
		s.cache = newSelectCache(cfg.SelectCacheEntries)
	}
	s.sem = make(chan struct{}, s.maxInflight)
	s.slowNS = cfg.SlowRequest.Nanoseconds()
	s.traceEvery = cfg.TraceEvery
	s.ring = obs.NewTraceRing(cfg.TraceRingSize)
	s.logger = slogLogger(cfg.Logger)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jer", s.instrument(epJER, s.handleJER))
	s.mux.HandleFunc("POST /v1/select", s.instrument(epSelectMiss, s.handleSelect))
	s.mux.HandleFunc("POST /v1/select/batch", s.instrument(epSelectBatch, s.handleSelectBatch))
	s.mux.HandleFunc("GET /v1/pools", s.instrument(epPoolList, s.handlePoolList))
	s.mux.HandleFunc("GET /v1/pools/{name}", s.instrument(epPoolGet, s.handlePoolGet))
	s.mux.HandleFunc("PUT /v1/pools/{name}/jurors", s.instrument(epPoolPut, s.handlePoolPut))
	s.mux.HandleFunc("PATCH /v1/pools/{name}/jurors", s.instrument(epPoolPatch, s.handlePoolPatch))
	s.mux.HandleFunc("DELETE /v1/pools/{name}", s.instrument(epPoolDelete, s.handlePoolDelete))
	s.mux.HandleFunc("POST /v1/tasks", s.instrument(epTaskCreate, s.requireTasks(s.handleTaskCreate)))
	s.mux.HandleFunc("GET /v1/tasks", s.instrument(epTaskList, s.requireTasks(s.handleTaskList)))
	s.mux.HandleFunc("GET /v1/tasks/{id}", s.instrument(epTaskGet, s.requireTasks(s.handleTaskGet)))
	s.mux.HandleFunc("POST /v1/tasks/{id}/votes", s.instrument(epTaskVote, s.requireTasks(s.handleTaskVote)))
	s.mux.HandleFunc("POST /v1/tasks/{id}/votes/batch", s.instrument(epTaskVoteBatch, s.requireTasks(s.handleTaskVoteBatch)))
	s.mux.HandleFunc("GET /v1/insight/jurors", s.instrument(epInsightJurors, s.requireInsight(s.handleInsightJurors)))
	s.mux.HandleFunc("GET /v1/insight/calibration", s.instrument(epInsightCalibration, s.requireInsight(s.handleInsightCalibration)))
	s.mux.HandleFunc("GET /v1/insight/agreement", s.instrument(epInsightAgreement, s.requireInsight(s.handleInsightAgreement)))
	s.mux.HandleFunc("GET /v1/tasks/{id}/timeline", s.instrument(epTaskTimeline, s.requireLifecycle(s.handleTaskTimeline)))
	s.mux.HandleFunc("GET /v1/lifecycle", s.instrument(epLifecycle, s.requireLifecycle(s.handleLifecycle)))
	s.mux.HandleFunc("GET /v1/slo", s.instrument(epSLO, s.requireSLO(s.handleSLO)))
	// Ops routes ride the same instrumentation as the /v1 families (PR
	// 10): scrapes and probes get latency histograms and trace sampling
	// for free, and the pooled reqWriter keeps the added alloc count at
	// zero.
	s.mux.HandleFunc("GET /healthz", s.instrument(epOpsHealthz, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument(epOpsMetrics, s.handleMetrics))
	s.mux.HandleFunc("GET /metrics/prometheus", s.instrument(epOpsMetricsProm, s.handleMetricsProm))
	s.mux.HandleFunc("GET /debug/traces", s.instrument(epOpsDebugTraces, s.handleDebugTraces))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the server's pool store, e.g. for initial pool loading.
func (s *Server) Store() *pool.Store { return s.store }

// Engine returns the server's shared JER engine.
func (s *Server) Engine() *jury.Engine { return s.eng }

// SetDraining flips the health signal: while draining, /healthz returns
// 503 so load balancers stop routing here, while in-flight and queued
// requests complete. cmd/juryd sets it on SIGTERM before http shutdown.
func (s *Server) SetDraining(v bool) { s.m.draining.Store(v) }

// httpError is an error with a dedicated HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// OverloadedMsg is the error body of a 429 shed by admission control.
// Batch endpoints embed it as a per-item {"error": ...} value, so batch
// clients match against it to recognize a shed item.
const OverloadedMsg = "server overloaded, retry later"

// errShed is returned by admit when the queue is full.
var errShed = &httpError{status: http.StatusTooManyRequests, msg: OverloadedMsg}

// admit reserves an inflight slot for an evaluation request, queueing up
// to maxQueue waiters and shedding beyond that. On success the returned
// release must be called when the evaluation finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, nil
	default:
	}
	if int(s.m.queued.Add(1)) > s.maxQueue {
		s.m.queued.Add(-1)
		s.m.shed.Add(1)
		return nil, errShed
	}
	defer s.m.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deadline resolves the effective per-request timeout: the request's
// timeout_ms when given (clamped to the configured maximum), otherwise
// the server default.
func (s *Server) deadline(timeoutMS int64) (time.Duration, error) {
	if timeoutMS < 0 {
		return 0, badRequest("timeout_ms must be positive, got %d", timeoutMS)
	}
	d := s.defTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.maxTimeout {
			d = s.maxTimeout
		}
	}
	return d, nil
}

// bufPool recycles the request-read and response-encode buffers across
// requests: the steady-state serving paths (selects, votes) otherwise
// re-allocate a body-sized buffer per call. Buffers that ballooned past
// maxPooledBuf (a giant PUT) are dropped instead of pinned forever.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		bufPool.Put(buf)
	}
}

// decode parses a JSON request body with a size bound and strict fields.
// The body is read into a pooled buffer; exceeding the size bound is a
// 413, not a 400 — the request was well-formed, just too big.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)}
		}
		return badRequest("reading request body: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("decoding request body: %v", err)
	}
	mark(w, obs.StageDecode)
	return nil
}

// writeJSON encodes a JSON response through a pooled buffer, so an
// encoding failure surfaces as a clean 500 instead of a torn 2xx body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	writeRawJSON(w, status, buf.Bytes())
}

// writeRawJSON writes a pre-encoded JSON body (the cached-select and
// batch splice paths).
func writeRawJSON(w http.ResponseWriter, status int, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw) //nolint:errcheck // headers are already out
	mark(w, obs.StageEncode)
}

// fail maps an error to its HTTP status and writes the JSON error body.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	case errors.Is(err, pool.ErrPoolNotFound):
		status = http.StatusNotFound
	case errors.Is(err, pool.ErrUnknownJuror), errors.Is(err, pool.ErrNoUpdates),
		errors.Is(err, jury.ErrNoCandidates), errors.Is(err, jury.ErrEmptyJury),
		errors.Is(err, pbdist.ErrRateOutOfRange):
		status = http.StatusBadRequest
	case errors.Is(err, tasks.ErrTaskNotFound):
		status = http.StatusNotFound
	case errors.Is(err, tasks.ErrTaskClosed), errors.Is(err, tasks.ErrAlreadyVoted),
		errors.Is(err, tasks.ErrJurorReleased):
		status = http.StatusConflict
	case errors.Is(err, tasks.ErrNotInvited), errors.Is(err, tasks.ErrInvalidSpec):
		status = http.StatusBadRequest
	case errors.Is(err, jury.ErrNoFeasibleJury):
		status = http.StatusUnprocessableEntity
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// handleJER serves POST /v1/jer: the exact JER of one jury.
func (s *Server) handleJER(w http.ResponseWriter, r *http.Request) {
	var req JERRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.ErrorRates) == 0 {
		s.fail(w, badRequest("error_rates must be non-empty"))
		return
	}
	d, err := s.deadline(req.TimeoutMS)
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.fail(w, err)
		return
	}
	mark(w, obs.StageQueueWait)
	defer release()
	v, err := s.eng.JERContext(ctx, req.ErrorRates)
	if err != nil {
		s.fail(w, err)
		return
	}
	mark(w, obs.StageEngine)
	s.m.jerServed.Add(1)
	writeJSON(w, http.StatusOK, JERResponse{JER: v, Size: len(req.ErrorRates)})
}

// selectPlan is one validated select: the parsed request plus its
// resolved candidate source. A named pool resolves to its current
// snapshot at parse time, once: everything downstream — including the
// response's pool_version and the cache key — reads that one immutable
// snapshot, no matter how many PATCHes land meanwhile.
type selectPlan struct {
	req   *SelectRequest
	model string
	kind  selectKind
	pool  *pool.Pool   // nil for inline candidates
	cands []jury.Juror // inline candidates, validated; nil when pool is set
}

// parseSelect validates one select request and resolves its candidate
// source. It performs no evaluation work and takes no admission slot.
func (s *Server) parseSelect(req *SelectRequest) (selectPlan, error) {
	p := selectPlan{req: req, model: req.Model}
	if p.model == "" {
		p.model = "altr"
	}
	if p.model != "altr" && p.model != "pay" {
		return p, badRequest("unknown model %q (want altr or pay)", p.model)
	}
	switch {
	case req.Pool != "" && req.Candidates != nil:
		return p, badRequest("pool and candidates are mutually exclusive")
	case req.Pool != "":
		snap, ok := s.store.Get(req.Pool)
		if !ok {
			return p, fmt.Errorf("%w: %q", pool.ErrPoolNotFound, req.Pool)
		}
		p.pool = snap
	case len(req.Candidates) > 0:
		p.cands = make([]jury.Juror, len(req.Candidates))
		for i, c := range req.Candidates {
			p.cands[i] = c.Juror()
		}
		// Inline candidates are client input: validate at the boundary so
		// malformed jurors answer 400, before a queue slot is spent.
		if err := core.ValidateCandidates(p.cands); err != nil {
			return p, badRequest("%v", err)
		}
	default:
		return p, badRequest("request must name a pool or carry candidates")
	}
	switch {
	case p.model == "pay" && req.Budget < 0:
		return p, badRequest("budget must be non-negative, got %g", req.Budget)
	case p.model == "altr" && (req.Budget != 0 || req.Exact):
		// Silently ignoring these and echoing the budget back would let a
		// client believe a constraint was applied when it was not.
		return p, badRequest("budget and exact apply only to model \"pay\"")
	}
	switch {
	case p.model == "altr":
		p.kind = kindAltr
	case req.Exact:
		p.kind = kindPayExact
		n := len(p.cands)
		if p.pool != nil {
			n = len(p.pool.Sorted())
		}
		if n > jury.MaxExactCandidates {
			return p, badRequest("exact enumeration accepts at most %d candidates, got %d",
				jury.MaxExactCandidates, n)
		}
	default:
		p.kind = kindPay
	}
	return p, nil
}

// computeSelectRaw runs the engine for one plan and returns the fully
// encoded JSON response — byte-identical to what writeJSON would emit
// for the same SelectResponse, so cached and uncached responses are
// indistinguishable on the wire.
func (s *Server) computeSelectRaw(ctx context.Context, p selectPlan) ([]byte, error) {
	var sel jury.Selection
	var err error
	switch {
	case p.kind == kindAltr && p.pool != nil:
		// The snapshot is validated and ε-sorted at ingest: the hot path
		// runs with no re-validation, no sort, and no lock.
		sel, err = s.eng.SelectAltruisticSnapshot(ctx, p.pool.Sorted())
	case p.kind == kindAltr:
		sel, err = s.eng.SelectAltruisticSnapshot(ctx, core.SortedByErrorRate(p.cands))
	default: // pay
		cands := p.cands
		if p.pool != nil {
			cands = p.pool.Sorted()
		}
		if p.kind == kindPayExact {
			sel, err = s.eng.SelectExactContext(ctx, cands, p.req.Budget)
		} else {
			sel, err = s.eng.SelectBudgetedContext(ctx, cands, p.req.Budget)
		}
	}
	if err != nil {
		return nil, err
	}
	resp := SelectResponse{Selection: dataio.NewSelectionJSON(p.model, p.req.Budget, sel)}
	if p.pool != nil {
		resp.Pool = p.pool.Name
		resp.PoolVersion = p.pool.Version
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// selectRaw resolves one plan to response bytes, reporting whether the
// version-keyed cache served it. Pool-backed selects go through the
// cache: a warm key returns resident bytes without touching admission
// control, the engine, or the encoder; a cold key computes once under
// singleflight with only the flight leader holding an admission slot.
// Inline-candidate selects (arbitrary client payloads, no version to
// key on) always compute. w carries the stage recorder; a follower
// collapsed onto another flight books its wait as engine time.
func (s *Server) selectRaw(ctx context.Context, w http.ResponseWriter, p selectPlan) ([]byte, bool, error) {
	if p.pool != nil && s.cache != nil {
		key := selectKey{pool: p.pool.Name, version: p.pool.Version, kind: p.kind, budget: p.req.Budget}
		if raw, ok := s.cache.get(key); ok {
			mark(w, obs.StageCacheProbe)
			return raw, true, nil
		}
		raw, err := s.cache.do(key, func() ([]byte, error) {
			release, err := s.admit(ctx)
			if err != nil {
				return nil, err
			}
			mark(w, obs.StageQueueWait)
			defer release()
			return s.computeSelectRaw(ctx, p)
		})
		mark(w, obs.StageEngine)
		return raw, false, err
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, false, err
	}
	mark(w, obs.StageQueueWait)
	defer release()
	raw, err := s.computeSelectRaw(ctx, p)
	mark(w, obs.StageEngine)
	return raw, false, err
}

// handleSelect serves POST /v1/select: pick the minimum-JER jury from a
// named pool snapshot or an inline candidate set.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	d, err := s.deadline(req.TimeoutMS)
	if err != nil {
		s.fail(w, err)
		return
	}
	plan, err := s.parseSelect(&req)
	if err != nil {
		s.fail(w, err)
		return
	}
	mark(w, obs.StageSnapshot)
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	raw, hit, err := s.selectRaw(ctx, w, plan)
	if err != nil {
		s.fail(w, err)
		return
	}
	if hit {
		setEndpoint(w, epSelectWarm)
	}
	s.m.selections.Add(1)
	writeRawJSON(w, http.StatusOK, raw)
}

// handleSelectBatch serves POST /v1/select/batch: N selects in one
// round trip, each resolved independently through the same parse →
// cache → compute path as /v1/select. Per-item results are spliced from
// their pre-encoded bytes — a batch of warm keys never touches an
// encoder. Item failures are per-item {"error": ...} objects, not a
// batch failure, so one bad select cannot void its neighbours' work.
func (s *Server) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSelectRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Selects) == 0 {
		s.fail(w, badRequest("selects must be non-empty"))
		return
	}
	if len(req.Selects) > s.maxBatch {
		s.fail(w, badRequest("batch accepts at most %d selects, got %d", s.maxBatch, len(req.Selects)))
		return
	}
	d, err := s.deadline(req.TimeoutMS)
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	buf.WriteString(`{"results":[`)
	for i := range req.Selects {
		if i > 0 {
			buf.WriteByte(',')
		}
		plan, err := s.parseSelect(&req.Selects[i])
		var raw []byte
		if err == nil {
			raw, _, err = s.selectRaw(ctx, w, plan)
		}
		if err != nil {
			item, merr := json.Marshal(errorResponse{Error: err.Error()})
			if merr != nil {
				item = []byte(`{"error":"encoding item error"}`)
			}
			buf.Write(item)
			continue
		}
		s.m.selections.Add(1)
		buf.Write(bytes.TrimRight(raw, "\n"))
	}
	buf.WriteString("]}\n")
	s.m.batchSelects.Add(1)
	writeRawJSON(w, http.StatusOK, buf.Bytes())
}

// handlePoolList serves GET /v1/pools.
func (s *Server) handlePoolList(w http.ResponseWriter, r *http.Request) {
	pools := s.store.List()
	out := PoolListResponse{Pools: make([]PoolResponse, len(pools))}
	for i, p := range pools {
		out.Pools[i] = poolResponse(p, false)
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePoolGet serves GET /v1/pools/{name}.
func (s *Server) handlePoolGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	p, ok := s.store.Get(name)
	if !ok {
		s.fail(w, fmt.Errorf("%w: %q", pool.ErrPoolNotFound, name))
		return
	}
	writeJSON(w, http.StatusOK, poolResponse(p, true))
}

// handlePoolPut serves PUT /v1/pools/{name}/jurors: full replacement
// (creating the pool when absent).
func (s *Server) handlePoolPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req PutJurorsRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	jurors := make([]jury.Juror, len(req.Jurors))
	for i, j := range req.Jurors {
		jurors[i] = j.Juror()
	}
	p, err := s.putPool(name, jurors)
	if err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	mark(w, obs.StageStore)
	s.m.poolWrites.Add(1)
	writeJSON(w, http.StatusOK, poolResponse(p, false))
}

// handlePoolPatch serves PATCH /v1/pools/{name}/jurors: incremental
// updates, including folding observed votes into error rates.
func (s *Server) handlePoolPatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req PatchJurorsRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	ups := make([]pool.JurorUpdate, len(req.Updates))
	for i, u := range req.Updates {
		ups[i] = pool.JurorUpdate{ID: u.ID, ErrorRate: u.ErrorRate, Cost: u.Cost, Remove: u.Remove}
		if u.Votes != nil {
			ups[i].Votes = &pool.VoteObservation{Wrong: u.Votes.Wrong, Total: u.Votes.Total}
		}
	}
	p, err := s.patchPool(name, ups)
	if err != nil {
		if errors.Is(err, pool.ErrPoolNotFound) {
			s.fail(w, err)
		} else {
			s.fail(w, badRequest("%v", err))
		}
		return
	}
	mark(w, obs.StageStore)
	s.m.poolWrites.Add(1)
	writeJSON(w, http.StatusOK, poolResponse(p, false))
}

// handlePoolDelete serves DELETE /v1/pools/{name}.
func (s *Server) handlePoolDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	existed, err := s.deletePool(name)
	if err != nil {
		s.fail(w, err)
		return
	}
	if !existed {
		s.fail(w, fmt.Errorf("%w: %q", pool.ErrPoolNotFound, name))
		return
	}
	mark(w, obs.StageStore)
	s.m.poolWrites.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// putPool, patchPool and deletePool route pool mutations through the
// task store's write-ahead log when one is configured — the durability
// contract: every mutation a restarted juryd must replay goes through
// one journal — and straight to the in-memory store otherwise.
func (s *Server) putPool(name string, jurors []jury.Juror) (*pool.Pool, error) {
	if s.tasks != nil {
		return s.tasks.PutPool(name, jurors)
	}
	return s.store.Put(name, jurors)
}

func (s *Server) patchPool(name string, ups []pool.JurorUpdate) (*pool.Pool, error) {
	if s.tasks != nil {
		return s.tasks.PatchPool(name, ups)
	}
	return s.store.Patch(name, ups)
}

func (s *Server) deletePool(name string) (bool, error) {
	if s.tasks != nil {
		return s.tasks.DeletePool(name)
	}
	return s.store.Delete(name), nil
}
