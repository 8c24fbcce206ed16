// Command perfbench is juryd's end-to-end benchmark. It starts a real
// juryd (built from cmd/juryd) as its own process on a fresh WAL
// directory, drives it over loopback with an open-loop Poisson schedule
// and then a closed-loop saturation phase, checks every response, kills
// and restarts juryd to check durability, and prints each metric by
// name with its unit. With -trace 1 it instead measures the per-layer
// metrics (see traced.go).
//
// Run it from the repository root through run.sh, which builds juryd
// and this command:
//
//	bash perfbench/run.sh --workload pool-select --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	juryd    string // juryd binary
	work     string // scratch directory for WAL dirs and spans
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name (pool-select, inline-select, task-lifecycle)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 45, "measured seconds per run")
	flag.IntVar(&cfg.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics (traced run)")
	flag.StringVar(&cfg.juryd, "juryd", "", "path to the juryd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory (WAL dirs, span dumps)")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 4 {
		return fmt.Errorf("--seconds must be at least 4, got %d", cfg.seconds)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", cfg.trace)
	}
	if cfg.juryd == "" {
		return errors.New("--juryd is required")
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	prof := machineProfile(work, w)
	pj, err := json.Marshal(prof)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "profile %s\n", pj)

	var res *result
	if cfg.trace == 1 {
		res, err = runTraced(cfg, w, work)
	} else {
		res, err = runEndToEnd(cfg, w, work)
	}
	if err != nil {
		return err
	}
	return res.print(out)
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	notes     []string
	names     []string
	metrics   map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) { // an empty sample; JSON has no NaN
		r.notes = append(r.notes, "no samples for "+name)
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one "metric" line per metric, then the result object as
// the last line.
func (r *result) print(out io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(out, "note", n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(out, "metric %-36s %16.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// Run shape. The open loop is the measured latency phase; its first
// warmup seconds are sent and checked but left out of the percentiles.
// The traced run ends with a closed loop on the restarted juryd, which
// takes closedShare of its seconds and measures peak throughput.
const (
	closedShare = 0.25
	warmup      = time.Second
	drainCap    = 3 * time.Second // follow-ups still sent after the open window
	setupReps   = 5
	recovReps   = 5
	closedCap   = 4000 // distinct pre-generated closed-loop ops, cycled
)

// workers is the generator's concurrency: one goroutine and one
// connection per CPU.
func workers() int { return runtime.NumCPU() }

// windows splits a run's seconds between the open and closed loops.
func windows(seconds int, closedLoop bool) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	if closedLoop {
		closed = time.Duration(float64(total) * closedShare)
	}
	return total - closed, closed
}

// session is one juryd life cycle: setup, open loop, kill and recovery,
// closed loop. Both the end-to-end and the traced run start with it.
type session struct {
	cfg     config
	w       *workload
	g       *gen
	st      *runState
	dir     string
	j       *juryd
	c       *client
	setup   []time.Duration
	recov   []time.Duration
	open    []sample
	closed  []sample
	closedW time.Duration
	hwm     int64
	checked int
	q       quality
	// observe, when set, is called before and after the open loop.
	observe func(after bool, j *juryd, c *client) error
	// closedLoop adds the closed-loop phase (traced runs).
	closedLoop bool
}

func (s *session) run(work string) error {
	openW, closedW := windows(s.cfg.seconds, s.closedLoop)
	s.closedW = closedW
	s.g = newGen(s.w, s.cfg.seed)
	roots := s.g.schedule(openW)
	bodies := preloadBodies(s.g)

	// Set-up: juryd start to ready plus pool preload, several times; the
	// last instance serves the run.
	for i := 0; i < setupReps; i++ {
		s.dir = filepath.Join(work, fmt.Sprintf("wal-%d", i))
		j, ready, err := startJuryd(s.cfg.juryd, s.dir)
		if err != nil {
			return err
		}
		c := newClient(j.addr, workers())
		t0 := time.Now()
		if err := preload(c, bodies); err != nil {
			c.close()
			j.kill()
			return err
		}
		s.setup = append(s.setup, ready+time.Since(t0))
		if i < setupReps-1 {
			c.close()
			j.kill()
			if err := os.RemoveAll(s.dir); err != nil {
				return err
			}
			continue
		}
		s.j, s.c = j, c
	}
	// Whatever instance is current when run returns is killed and reaped;
	// after a clean stop this only finds it gone.
	defer func() { s.j.kill() }()

	// Open loop.
	s.st = newRunState(s.g)
	if s.observe != nil {
		if err := s.observe(false, s.j, s.c); err != nil {
			return err
		}
	}
	ph := newPhase(s.c, s.st, workers())
	for _, o := range roots {
		ph.pushLocked(o)
	}
	start := time.Now().Add(10 * time.Millisecond)
	s.open = ph.run(start, start.Add(openW+drainCap))
	if s.observe != nil {
		if err := s.observe(true, s.j, s.c); err != nil {
			return err
		}
	}
	// Peak memory of the process that served the open loop, whose work
	// the seed fixes; the closed loop's work grows with machine speed.
	hwm, err := vmHWM(s.j.cmd.Process.Pid)
	if err != nil {
		return err
	}
	s.hwm = hwm
	s.c.close()

	// SIGKILL, then restart on the same directory; the first restart
	// replays the crash, later ones replay the same recovered state.
	s.j.kill()
	for i := 0; i < recovReps; i++ {
		j, d, err := startJuryd(s.cfg.juryd, s.dir)
		if err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		s.recov = append(s.recov, d)
		if i < recovReps-1 {
			j.kill()
			continue
		}
		s.j = j
	}
	s.c = newClient(s.j.addr, workers())
	defer s.c.close()
	s.checked, s.q = s.st.verifyDurable(s.c)
	s.checked += s.st.checkSamples()

	if !s.closedLoop {
		return s.j.stop()
	}

	// Closed loop on the restarted juryd.
	closedOps := s.closedStream()
	s.st.followUps = true
	next := 0
	cp := newPhase(s.c, s.st, workers())
	cp.closed = true
	base := len(roots)
	cp.refill = func() op {
		o := closedOps[next%len(closedOps)]
		o.task = base + next
		next++
		return o
	}
	start = time.Now()
	s.closed = cp.run(start, start.Add(closedW))
	return s.j.stop()
}

// closedStream pre-generates the closed loop's ops from their own seeded
// stream, so generating request bodies stays out of the timed phase.
func (s *session) closedStream() []op {
	g := *s.g
	g.src = s.g.src.Split("closed")
	draw := s.w.newDrawer(&g)
	out := make([]op, closedCap)
	for i := range out {
		out[i] = draw()
	}
	return out
}

type poolBody struct {
	name string
	body []byte
}

func preloadBodies(g *gen) []poolBody {
	var out []poolBody
	for _, p := range g.w.pools {
		out = append(out, poolBody{p, mustJSON(struct {
			Jurors any `json:"jurors"`
		}{g.pools[p]})})
	}
	return out
}

func preload(c *client, pools []poolBody) error {
	buf := new(bytes.Buffer)
	for _, p := range pools {
		status, err := c.do(http.MethodPut, "/v1/pools/"+p.name+"/jurors", p.body, buf, 0)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("preloading pool %s: status %d: %s", p.name, status, buf.Bytes())
		}
	}
	return nil
}

// runEndToEnd measures the end-to-end metrics.
func runEndToEnd(cfg config, w *workload, work string) (*result, error) {
	s := &session{cfg: cfg, w: w}
	if err := s.run(work); err != nil {
		return nil, err
	}
	r := newResult()
	s.fillEndToEnd(r)
	return r, nil
}

// fillEndToEnd derives the end-to-end metrics and the run's counts.
func (s *session) fillEndToEnd(r *result) {
	reads, writes := openLatencies(s.open)
	r.attempted = len(s.open) + len(s.closed) + s.checked
	r.failed = s.st.failures
	r.correct = s.st.failures == 0
	r.notes = append(r.notes, s.st.failMsgs...)
	r.notes = append(r.notes, fmt.Sprintf("open loop: %d ops (%d reads, %d writes after warm-up), %d late votes; closed loop: %d ops; %d durability and JER checks",
		len(s.open), len(reads), len(writes), s.st.late, len(s.closed), s.checked))
	r.notes = append(r.notes, fmt.Sprintf("set-ups: %.3f s", durations(s.setup)),
		fmt.Sprintf("restarts after SIGKILL: %.3f s", durations(s.recov)))

	r.set("setup_s", median(durations(s.setup)), "s")
	r.set("read_p50_ms", quantile(reads, 0.50), "ms")
	r.set("peak_rss_mb", float64(s.hwm)/(1<<20), "MB")
	r.set("votes_per_verdict", s.votesPerVerdict(), "count")
}

// votesPerVerdict is the asking cost: votes spent per decided task, or,
// on the select workloads, the jury size an asker must poll per select.
func (s *session) votesPerVerdict() float64 {
	if s.q.decided > 0 {
		return float64(s.q.votes) / float64(s.q.decided)
	}
	if s.st.juries == 0 {
		return 0
	}
	return float64(s.st.jurySum) / float64(s.st.juries)
}

// openLatencies returns the successful open-loop latencies (ms) after
// the warm-up, reads and writes apart.
func openLatencies(samples []sample) (reads, writes []float64) {
	for _, x := range samples {
		if !x.ok || x.at < warmup {
			continue
		}
		ms := float64(x.lat) / float64(time.Millisecond)
		if x.kind.write() {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	return reads, writes
}

// throughputWindows is the closed loop's completed ops in each whole
// second; peak_rps is their median, so one stalled second does not set
// it.
func throughputWindows(samples []sample, closedW time.Duration) []float64 {
	n := int(closedW / time.Second)
	if n < 1 {
		n = 1
	}
	counts := make([]float64, n)
	for _, x := range samples {
		if !x.ok {
			continue
		}
		i := int((x.at + x.lat) / time.Second)
		if i < n {
			counts[i]++
		}
	}
	return counts
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation sample quantile (type 7); NaN
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// machineProfile records where a result was measured.
func machineProfile(work string, w *workload) map[string]string {
	return map[string]string{
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"git_revision": gitRevision(),
		"wal_fs":       filesystem(work),
		"workload":     w.name,
		"offered_rate": strconv.FormatFloat(w.rate, 'g', -1, 64) + " root ops/s",
	}
}
