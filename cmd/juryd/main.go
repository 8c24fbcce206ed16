// Command juryd serves jury selection over HTTP/JSON: the paper's
// decision-making primitive as an online service backed by a versioned
// live juror-pool store and a durable decision-task store.
//
// Usage:
//
//	juryd [-addr :8080] [-pool name=jurors.csv ...] [-workers N]
//	      [-cache N] [-max-inflight N] [-max-queue N]
//	      [-timeout 5s] [-max-timeout 30s] [-drain 10s] [-drain-delay 0s]
//	      [-wal-dir DIR] [-fsync batch] [-compact-every N] [-task-shards N]
//	      [-sweep 1s] [-juror-timeout 60s] [-task-expiry 1h]
//	      [-slow-ms N] [-trace-every N] [-trace-ring N] [-pprof-addr ADDR]
//	      [-insight] [-insight-pairs N]
//	      [-lifecycle] [-lifecycle-timelines N]
//	      [-slo] [-slo-eval 10s] [-slo-compress N] [-stall-grace D]
//	      [-slo-verdict-threshold 60s] [-slo-verdict-target 0.99]
//	      [-slo-expired-target 0.99] [-slo-http-target 0.999]
//	      [-slo-fsync-threshold 50ms] [-slo-fsync-target 0.999]
//
// Endpoints:
//
//	POST   /v1/jer                   exact JER of one jury
//	POST   /v1/select                minimum-JER jury from a pool or inline
//	POST   /v1/tasks                 open a decision task (select its jury)
//	GET    /v1/tasks                 list tasks (?status=open|awaiting_votes|decided|expired)
//	GET    /v1/tasks/{id}            one task with jurors, votes and verdict
//	POST   /v1/tasks/{id}/votes      record a juror's vote or decline
//	GET    /v1/pools                 list pools
//	GET    /v1/pools/{name}          one pool snapshot (with jurors)
//	PUT    /v1/pools/{name}/jurors   replace the pool
//	PATCH  /v1/pools/{name}/jurors   incremental updates / observed votes
//	DELETE /v1/pools/{name}          drop the pool
//	GET    /v1/insight/jurors       per-juror profiles: response rates, realized error, latency
//	GET    /v1/insight/calibration  predicted-JER reliability diagram and Brier score
//	GET    /v1/insight/agreement    co-vote pair agreement with above-chance z-scores
//	GET    /v1/tasks/{id}/timeline   one task's reconstructed life as ordered spans
//	GET    /v1/lifecycle             aggregate time-to-verdict/first-vote distributions
//	GET    /v1/slo                   error-budget burn rates and alert state per objective
//	GET    /healthz                  200 serving / 503 draining (plus WAL queue depth and sweep-stall watchdog)
//	GET    /metrics                  request, shed, engine, task and WAL counters (JSON)
//	GET    /metrics/prometheus       the same counters in Prometheus text format
//	GET    /debug/traces             recent request traces with per-stage timing
//
// Observability: every endpoint keeps an always-on latency histogram
// (JSON summaries under /metrics, full buckets under
// /metrics/prometheus). -trace-every N samples every Nth request into
// the /debug/traces ring; -slow-ms N logs (and always traces) requests
// at least that slow. -pprof-addr serves net/http/pprof on a separate
// listener, kept off the service port so profiling is never exposed
// through the load balancer.
//
// Lifecycle and SLOs: -lifecycle (default on) reconstructs every
// task's timeline from the same event stream that feeds -insight —
// attached before WAL replay, so a restarted juryd serves byte-identical
// timelines. -slo (default on) tracks four declarative objectives as
// error budgets — verdict latency, undecided/expired rate, HTTP 5xx
// rate, and WAL fsync latency — with multi-window burn-rate alerting
// (fast 5m/1h pair at 14.4×, slow 6h/3d pair at 1×); trips are logged
// and exported as juryd_slo_* series. -slo-compress N divides every
// window by N (CI smokes compress 1000× to trip alerts in seconds).
// The sweep watchdog flags tasks stuck past their juror timeout with
// no sweeper progress into /healthz ("degraded" + stall block).
//
// Durability: with -wal-dir set, every pool and task mutation is
// journaled to a CRC-framed write-ahead log and periodically folded into
// a snapshot (-compact-every records). -fsync batch (the default; "always"
// is another name for it) fsyncs before acknowledging a write, with
// concurrent writes sharing one group-commit fsync; -fsync off leaves
// flushing to the kernel. On boot juryd replays snapshot + log —
// truncating a torn tail from a crash mid-write — to the exact pre-crash
// state, so under -fsync batch a kill -9 or a machine crash loses
// nothing acknowledged. A log written in the pre-v2 JSON record framing
// is refused: juryd exits with an error naming the file. Without
// -wal-dir the task store is ephemeral.
//
// A background sweeper (period -sweep) releases invited jurors who have
// not answered within -juror-timeout — inviting the next-best candidate
// under the remaining budget — and expires tasks older than
// -task-expiry.
//
// Each -pool flag preloads a pool from a CSV (id,error_rate[,cost]) or
// JSON file, by extension; a pool already recovered from the WAL is NOT
// overwritten by its preload file (the journal is authoritative). On
// SIGTERM or SIGINT the server flips /healthz to 503 and — when
// -drain-delay is set — keeps serving for that window so load balancers
// observe the drain and deregister, then stops accepting connections,
// drains in-flight requests for at most -drain, flushes the WAL, and
// exits 0.
//
// Example:
//
//	$ juryd -addr :8080 -pool crowd=jurors.csv -wal-dir /var/lib/juryd &
//	$ curl -s localhost:8080/v1/tasks -d '{"pool":"crowd","question":"is it true?"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"juryselect/internal/dataio"
	"juryselect/internal/insight"
	"juryselect/internal/lifecycle"
	"juryselect/internal/server"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// poolFlags collects repeated -pool name=path flags.
type poolFlags []string

func (p *poolFlags) String() string { return strings.Join(*p, ",") }
func (p *poolFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

type config struct {
	addr        string
	pools       poolFlags
	workers     int
	cacheSize   int
	maxInflight int
	maxQueue    int
	selectCache int
	timeout     time.Duration
	maxTimeout  time.Duration
	drain       time.Duration
	drainDelay  time.Duration

	walDir       string
	fsync        string
	compactEvery int
	taskShards   int
	sweep        time.Duration
	jurorTimeout time.Duration
	taskExpiry   time.Duration

	slowMS     int
	traceEvery int
	traceRing  int
	pprofAddr  string

	insightOn bool
	pairCap   int

	lifecycleOn bool
	timelineCap int

	sloOn            bool
	sloEval          time.Duration
	sloCompress      int
	stallGrace       time.Duration
	verdictThreshold time.Duration
	verdictTarget    float64
	expiredTarget    float64
	httpTarget       float64
	fsyncThreshold   time.Duration
	fsyncTarget      float64
}

// objectives renders the -slo-* flags as the declarative objective set
// loaded at start. Latency thresholds ≤ 0 drop that objective.
func (c *config) objectives() []lifecycle.Objective {
	var out []lifecycle.Objective
	if c.verdictThreshold > 0 {
		out = append(out, lifecycle.Objective{
			Name: "verdict-latency", SLI: lifecycle.SLIVerdictLatency,
			Target: c.verdictTarget, ThresholdNS: c.verdictThreshold.Nanoseconds(),
		})
	}
	out = append(out,
		lifecycle.Objective{Name: "task-expiry", SLI: lifecycle.SLIExpiredRate, Target: c.expiredTarget},
		lifecycle.Objective{Name: "http-availability", SLI: lifecycle.SLIHTTP5xx, Target: c.httpTarget},
	)
	if c.fsyncThreshold > 0 {
		out = append(out, lifecycle.Objective{
			Name: "wal-fsync", SLI: lifecycle.SLIWALFsync,
			Target: c.fsyncTarget, ThresholdNS: c.fsyncThreshold.Nanoseconds(),
		})
	}
	return out
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Var(&cfg.pools, "pool", "preload a pool: name=jurors.csv or name=jurors.json (repeatable)")
	flag.IntVar(&cfg.workers, "workers", 0, "engine worker pool (0 = all cores)")
	flag.IntVar(&cfg.cacheSize, "cache", 0, "JER memo entries (0 = default, negative = disabled)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "concurrent evaluation requests (0 = all cores)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "queued evaluation requests before 429 shedding (0 = default, negative = no queue)")
	flag.IntVar(&cfg.selectCache, "select-cache", 0, "version-keyed select response cache entries (0 = default, negative = disabled)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "default per-request deadline (0 = 5s)")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", 0, "cap on request-supplied deadlines (0 = 30s)")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	flag.DurationVar(&cfg.drainDelay, "drain-delay", 0, "serve 503 on /healthz for this long before closing listeners, so load balancers observe the drain and deregister (0 = shut down immediately)")
	flag.StringVar(&cfg.walDir, "wal-dir", "", "directory for the task/pool write-ahead log (empty = ephemeral store)")
	flag.StringVar(&cfg.fsync, "fsync", "batch", "WAL durability: batch (fsync before acknowledging, group-committed; always is another name for it) or off (no fsync)")
	flag.IntVar(&cfg.compactEvery, "compact-every", 0, "WAL records between snapshot compactions (0 = default, negative = never)")
	flag.IntVar(&cfg.taskShards, "task-shards", 0, "task store shard count, rounded up to a power of two (0 = default)")
	flag.DurationVar(&cfg.sweep, "sweep", time.Second, "juror-timeout/expiry sweep period (0 = no sweeper)")
	flag.DurationVar(&cfg.jurorTimeout, "juror-timeout", 0, "default juror response timeout (0 = 60s)")
	flag.DurationVar(&cfg.taskExpiry, "task-expiry", 0, "default task expiry (0 = 1h)")
	flag.IntVar(&cfg.slowMS, "slow-ms", 0, "log and trace requests at least this slow, in milliseconds (0 = off)")
	flag.IntVar(&cfg.traceEvery, "trace-every", 0, "sample every Nth request into /debug/traces (0 = off)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 0, "trace ring capacity (0 = default)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	flag.BoolVar(&cfg.insightOn, "insight", true, "maintain juror/calibration/agreement analytics from the task event stream (serves /v1/insight/*)")
	flag.IntVar(&cfg.pairCap, "insight-pairs", 0, "co-vote pair tracker capacity (0 = default)")
	flag.BoolVar(&cfg.lifecycleOn, "lifecycle", true, "reconstruct per-task timelines from the task event stream (serves /v1/tasks/{id}/timeline and /v1/lifecycle)")
	flag.IntVar(&cfg.timelineCap, "lifecycle-timelines", 0, "closed timelines retained before lowest-ID eviction (0 = default)")
	flag.BoolVar(&cfg.sloOn, "slo", true, "track SLOs as error budgets with burn-rate alerts (serves /v1/slo, exports juryd_slo_*)")
	flag.DurationVar(&cfg.sloEval, "slo-eval", 10*time.Second, "burn-rate evaluation and HTTP-SLI poll period (0 = evaluate only on scrape)")
	flag.IntVar(&cfg.sloCompress, "slo-compress", 1, "divide every alerting window by N (CI smoke runs compressed policies)")
	flag.DurationVar(&cfg.stallGrace, "stall-grace", 0, "slack past the juror timeout before the watchdog flags a task as stalled (0 = 3 sweep periods)")
	flag.DurationVar(&cfg.verdictThreshold, "slo-verdict-threshold", time.Minute, "verdict-latency objective threshold: creation to verdict (0 = drop the objective)")
	flag.Float64Var(&cfg.verdictTarget, "slo-verdict-target", 0.99, "fraction of verdicts that must land within -slo-verdict-threshold")
	flag.Float64Var(&cfg.expiredTarget, "slo-expired-target", 0.99, "fraction of closed tasks that must decide (not expire undecided)")
	flag.Float64Var(&cfg.httpTarget, "slo-http-target", 0.999, "fraction of non-ops requests that must not 5xx")
	flag.DurationVar(&cfg.fsyncThreshold, "slo-fsync-threshold", 50*time.Millisecond, "WAL fsync latency objective threshold (0 = drop the objective)")
	flag.Float64Var(&cfg.fsyncTarget, "slo-fsync-target", 0.999, "fraction of WAL fsyncs that must land within -slo-fsync-threshold")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A second signal during the -drain-delay window skips the rest of
	// the deregistration wait (NotifyContext's context is already
	// cancelled by then, so it cannot carry the escalation).
	hurry := make(chan os.Signal, 1)
	signal.Notify(hurry, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(hurry)
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := run(ctx, cfg, logger, nil, hurry); err != nil {
		logger.Error("juryd failed", "err", err)
		os.Exit(1)
	}
}

// run builds the server, serves until ctx is cancelled, then drains.
// When ready is non-nil it receives the bound address once the listener
// is up (used by the tests to serve on a kernel-picked port). A receive
// on hurry (a second shutdown signal) cuts the -drain-delay window
// short; nil disables that escalation.
func run(ctx context.Context, cfg config, logger *slog.Logger, ready chan<- string, hurry <-chan os.Signal) error {
	var syncMode tasks.SyncMode
	switch cfg.fsync {
	case "always", "batch", "":
		// Both fsync before acknowledging a write; "always" is kept as a
		// name for batch.
		syncMode = tasks.SyncBatch
	case "off":
		syncMode = tasks.SyncOff
	default:
		return fmt.Errorf("bad -fsync %q (want always, batch or off)", cfg.fsync)
	}
	eng := jury.NewEngine(jury.BatchOptions{Workers: cfg.workers, CacheSize: cfg.cacheSize})
	// The insight and lifecycle engines attach before Open so WAL recovery
	// replays the whole task history into them; the live tail then feeds
	// the same sinks, which is what makes /v1/insight fingerprints and
	// /v1/tasks/{id}/timeline bytes restart-stable.
	var ins *insight.Engine
	var sinks []tasks.EventSink
	if cfg.insightOn {
		ins = insight.New(cfg.pairCap)
		sinks = append(sinks, ins)
	}
	var lce *lifecycle.Engine
	if cfg.lifecycleOn {
		lce = lifecycle.New(cfg.timelineCap)
		sinks = append(sinks, lce)
	}
	var slo *lifecycle.SLO
	var fsyncObs func(int64)
	if cfg.sloOn {
		windows := lifecycle.DefaultBurnWindows().Compress(cfg.sloCompress)
		slo = lifecycle.NewSLO(cfg.objectives(), windows, nil, logger)
		fsyncObs = slo.ObserveFsync
		if lce != nil {
			// Verdict-latency and expired-rate events flow through the
			// lifecycle engine with journaled timestamps, so replay
			// backfills the same burn windows a live feed filled.
			lce.AttachSLO(slo)
		}
	}
	store, err := tasks.Open(tasks.Config{
		Dir:                 cfg.walDir,
		Sync:                syncMode,
		Engine:              eng,
		CompactEvery:        cfg.compactEvery,
		Shards:              cfg.taskShards,
		DefaultJurorTimeout: cfg.jurorTimeout,
		DefaultExpiry:       cfg.taskExpiry,
		Events:              tasks.Sinks(sinks...),
		FsyncObserver:       fsyncObs,
	})
	if err != nil {
		return err
	}
	defer store.Close() //nolint:errcheck // re-closed explicitly after drain
	if store.Durable() {
		rec := store.Recovery()
		logger.Info("wal recovered",
			"dir", cfg.walDir,
			"records", rec.Records,
			"duration", rec.Duration.Round(time.Microsecond).String(),
			"pools", rec.Pools,
			"tasks", rec.Tasks,
			"snapshot", rec.SnapshotLoaded)
		if rec.TornBytes > 0 {
			logger.Warn("wal truncated torn tail (crash mid-write)", "bytes", rec.TornBytes)
		}
	}
	var wd *lifecycle.Watchdog
	if cfg.sweep > 0 || cfg.stallGrace > 0 {
		wd = lifecycle.NewWatchdog(store, cfg.stallGrace, cfg.sweep)
	}
	srv := server.New(server.Config{
		Engine:             eng,
		Tasks:              store,
		Insight:            ins,
		Lifecycle:          lce,
		SLO:                slo,
		Watchdog:           wd,
		MaxInflight:        cfg.maxInflight,
		MaxQueue:           cfg.maxQueue,
		SelectCacheEntries: cfg.selectCache,
		DefaultTimeout:     cfg.timeout,
		MaxTimeout:         cfg.maxTimeout,
		SlowRequest:        time.Duration(cfg.slowMS) * time.Millisecond,
		TraceEvery:         cfg.traceEvery,
		TraceRingSize:      cfg.traceRing,
		Logger:             logger,
	})
	for _, spec := range cfg.pools {
		name, size, skipped, err := loadPool(store, spec)
		if err != nil {
			return err
		}
		if skipped {
			logger.Info("pool already recovered from the WAL; skipping preload", "pool", name)
		} else {
			logger.Info("loaded pool", "pool", name, "jurors", size)
		}
	}

	// The sweeper applies wall-clock policy: juror timeouts (with
	// replacement) and task expiry. stopSweeper joins the goroutine —
	// it must have fully stopped before the store's WAL closes, or a
	// final tick would race the close and log a spurious journal error.
	stopSweeper := func() {}
	if cfg.sweep > 0 {
		sweepDone := make(chan struct{})
		sweepExited := make(chan struct{})
		var sweepOnce sync.Once
		stopSweeper = func() {
			sweepOnce.Do(func() {
				close(sweepDone)
				<-sweepExited
			})
		}
		defer stopSweeper()
		go func() {
			defer close(sweepExited)
			ticker := time.NewTicker(cfg.sweep)
			defer ticker.Stop()
			for {
				select {
				case <-sweepDone:
					return
				case <-ticker.C:
					if _, _, err := store.Sweep(time.Now().UTC()); err != nil {
						logger.Error("sweep failed", "err", err)
					}
				}
			}
		}()
	}

	// The SLO ticker polls the HTTP-SLI counters and evaluates burn
	// rates, logging alert transitions even when nobody scrapes. The
	// event-driven SLIs (verdicts, fsyncs) accumulate continuously; this
	// loop only decides when alerts flip.
	stopSLO := func() {}
	if slo != nil && cfg.sloEval > 0 {
		sloDone := make(chan struct{})
		sloExited := make(chan struct{})
		var sloOnce sync.Once
		stopSLO = func() {
			sloOnce.Do(func() {
				close(sloDone)
				<-sloExited
			})
		}
		defer stopSLO()
		go func() {
			defer close(sloExited)
			ticker := time.NewTicker(cfg.sloEval)
			defer ticker.Stop()
			for {
				select {
				case <-sloDone:
					return
				case <-ticker.C:
					srv.PollSLO()
					slo.Evaluate(time.Now().UTC())
				}
			}
		}()
	}

	if cfg.pprofAddr != "" {
		stopPprof, err := servePprof(cfg.pprofAddr, logger)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "addr", ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: flip the health signal, keep the listener open for
	// -drain-delay so load balancers actually observe the 503 and stop
	// routing here (Shutdown closes listeners immediately, which a
	// health prober would see as ECONNREFUSED, not a drain), then let
	// in-flight and queued requests finish.
	logger.Info("draining", "grace", cfg.drain.String())
	srv.SetDraining(true)
	if cfg.drainDelay > 0 {
		logger.Info("healthz now 503; deregistration window open", "window", cfg.drainDelay.String())
		select {
		case <-time.After(cfg.drainDelay):
		case <-hurry:
			logger.Info("second signal: skipping the rest of the deregistration window")
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	stopSweeper()
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing task store: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}

// servePprof starts the opt-in profiling listener on its own mux, so
// /debug/pprof is reachable only through -pprof-addr and never through
// the service port. The returned stop closes the listener.
func servePprof(addr string, logger *slog.Logger) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	psrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := psrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("pprof server failed", "err", err)
		}
	}()
	logger.Info("pprof serving", "addr", ln.Addr().String())
	return func() { psrv.Close() }, nil //nolint:errcheck
}

// loadPool parses one -pool flag ("name=path") and loads the file
// through the task store's journal, choosing the reader by extension. A
// pool already recovered from the WAL wins over its preload file: the
// journal carries every vote-driven re-estimate the file predates.
func loadPool(store *tasks.Store, spec string) (name string, size int, skipped bool, err error) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		return "", 0, false, fmt.Errorf("bad -pool %q (want name=path)", spec)
	}
	if _, exists := store.Pools().Get(name); exists {
		return name, 0, true, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return "", 0, false, err
	}
	defer f.Close()
	var jurors []jury.Juror
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		jurors, err = dataio.ReadCSV(f)
	case ".json":
		jurors, err = dataio.ReadJSON(f)
	default:
		return "", 0, false, fmt.Errorf("pool %q: unknown extension %q (want .csv or .json)", name, ext)
	}
	if err != nil {
		return "", 0, false, fmt.Errorf("pool %q: %w", name, err)
	}
	if _, err := store.PutPool(name, jurors); err != nil {
		return "", 0, false, fmt.Errorf("pool %q: %w", name, err)
	}
	return name, len(jurors), false, nil
}
