package tasks

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/obs"
	"juryselect/internal/pool"
	"juryselect/jury"
)

// Defaults for the zero Config.
const (
	// DefaultJurorTimeout releases an invited juror who has not answered.
	DefaultJurorTimeout = 60 * time.Second
	// DefaultExpiry closes a task that never reached a verdict.
	DefaultExpiry = time.Hour
	// DefaultCompactEvery is the number of WAL records between automatic
	// snapshot compactions.
	DefaultCompactEvery = 8192
	// taskShards is the task-store shard count, a power of two: a task's
	// mutations lock shard seq%taskShards, so votes on tasks in different
	// shards fold under different mutexes.
	taskShards = 32
)

// ErrStoreFailed reports a journal failure. A failed append fails the
// store: the in-memory state may be ahead of the log, so further
// mutations are refused until the process restarts and replays. A
// failed durability wait (the log's flush or fsync failed) wraps it too,
// so callers answer both as a server error, but does not itself fail
// the store; the log's sticky error fails the next append.
var ErrStoreFailed = errors.New("tasks: store failed (journal write error)")

// Config configures Open. The zero value of every field selects a
// sensible default; an empty Dir selects a memory-only store (no
// durability — tests, simulations and ephemeral deployments).
type Config struct {
	// Dir is the WAL directory ("" = memory-only).
	Dir string
	// Sync is the WAL durability mode (default SyncBatch).
	Sync SyncMode
	// Engine is the shared JER engine; nil constructs a default one.
	Engine *jury.Engine
	// Pools is the live juror-pool store the tasks select from; nil
	// constructs an empty one. All pool mutations must flow through the
	// task store (PutPool/PatchPool/DeletePool) so they are journaled.
	Pools *pool.Store
	// CompactEvery triggers snapshot compaction after that many WAL
	// records (0 = DefaultCompactEvery, negative = never).
	CompactEvery int
	// DefaultJurorTimeout and DefaultExpiry fill unset Spec fields at
	// creation; an unset TargetConfidence reads
	// estimate.DefaultTargetConfidence.
	DefaultJurorTimeout time.Duration
	DefaultExpiry       time.Duration
	// Events receives the task event stream (see events.go): every
	// lifecycle transition, emitted identically by live mutations and by
	// WAL replay during Open. Attach before Open so recovery feeds the
	// sink the journaled history. nil disables emission entirely.
	Events EventSink
	// FsyncObserver, when set, receives every WAL fsync latency in
	// nanoseconds (the wal_fsync SLI feed). Called from the committer
	// goroutine outside the WAL lock; it must be cheap and must not call
	// back into the store. Live-only by nature — fsyncs are a property of
	// this process, not of the journaled history.
	FsyncObserver func(latencyNS int64)
	// Now overrides the clock (tests).
	Now func() time.Time
}

// RecoveryStats describes what Open replayed.
type RecoveryStats struct {
	// SnapshotLoaded reports that a compaction snapshot was restored.
	SnapshotLoaded bool
	// Records is the number of intact WAL records replayed.
	Records int64
	// TornBytes is the size of the truncated torn tail (0 = clean log).
	TornBytes int64
	// Pools and Tasks count the recovered state.
	Pools int
	Tasks int
	// Duration is the wall-clock cost of recovery (snapshot load + WAL
	// replay).
	Duration time.Duration
}

// Stats is the store's observability surface: lifecycle gauges plus WAL
// counters, exported by juryd's /metrics.
type Stats struct {
	Open          int
	AwaitingVotes int
	Decided       int
	Expired       int
	Tasks         int
	Compactions   int64
	// CompactHist is the wall time of each compaction. Every store lock
	// is held throughout, so it is also how long writers stalled.
	CompactHist obs.HistSnapshot
	// Shards is the shard count; ShardContention counts
	// mutations that found their shard's mutex already held (a TryLock
	// miss — the cross-task serialization the sharding exists to avoid).
	Shards          int
	ShardContention int64
	WAL             WALStats
}

// Task table geometry: task n sits in slot n%taskChunkSize of chunk
// n/taskChunkSize.
const (
	taskChunkBits = 10
	taskChunkSize = 1 << taskChunkBits
)

// maxTaskGap bounds how far past the next number the store would assign
// recovery accepts a number a file names. A number is skipped only by a
// Create that took it and failed to journal, which fails the store, so
// only the creates then in flight skip one: no file this store writes
// holds such a gap. Unbounded, one CRC-valid record could make the table
// allocate in proportion to the number it names.
const maxTaskGap = 1 << 20

type taskChunk [taskChunkSize]atomic.Pointer[task]

// taskDir is a published directory: chunks[k] is chunk base+k.
type taskDir struct {
	base   uint64
	chunks []atomic.Pointer[taskChunk]
}

// find returns the chunk holding seq, or nil. A number below base wraps
// k past the directory's end.
func (d *taskDir) find(seq uint64) *taskChunk {
	if k := seq>>taskChunkBits - d.base; k < uint64(len(d.chunks)) {
		return d.chunks[k].Load()
	}
	return nil
}

// taskTable holds every task at its sequence number. Tasks are never
// removed, so a walk in slot order is creation order. Readers take no
// lock. Each number is placed once, by the create that took it, so
// writers fill distinct slots; only allocating a chunk, and growing the
// directory to reach it, takes mu.
type taskTable struct {
	dir atomic.Pointer[taskDir]
	mu  sync.Mutex
}

// startAt empties the table and starts it at seq's chunk.
func (tt *taskTable) startAt(seq uint64) { tt.dir.Store(&taskDir{base: seq >> taskChunkBits}) }

// get returns the task at seq, or nil.
func (tt *taskTable) get(seq uint64) *task {
	if c := tt.dir.Load().find(seq); c != nil {
		return c[seq%taskChunkSize].Load()
	}
	return nil
}

// place stores t at its sequence number. A grown directory is filled
// before it is published, so readers see the old one or the new one.
func (tt *taskTable) place(t *task) {
	c := tt.dir.Load().find(t.seq)
	if c == nil {
		tt.mu.Lock()
		d := tt.dir.Load()
		k := t.seq>>taskChunkBits - d.base
		if k >= uint64(len(d.chunks)) {
			next := &taskDir{base: d.base, chunks: make([]atomic.Pointer[taskChunk], max(2*uint64(len(d.chunks)), k+1))}
			for i := range d.chunks {
				next.chunks[i].Store(d.chunks[i].Load())
			}
			tt.dir.Store(next)
			d = next
		}
		if c = d.chunks[k].Load(); c == nil {
			c = new(taskChunk)
			d.chunks[k].Store(c)
		}
		tt.mu.Unlock()
	}
	c[t.seq%taskChunkSize].Store(t)
}

// each calls f on every placed task in sequence order and returns f's
// first error. A task placed during the walk may or may not be visited.
func (tt *taskTable) each(f func(*task) error) error {
	d := tt.dir.Load()
	for i := range d.chunks {
		if c := d.chunks[i].Load(); c != nil {
			for j := range c {
				if t := c[j].Load(); t != nil {
					if err := f(t); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// shard is one mutex stripe of the task table, picked by sequence
// number. Mutations hold mu; reads load the table and each task's
// published state, so GET and the sweeper's scan take no locks.
type shard struct {
	mu        sync.Mutex
	contended atomic.Int64
}

// lockContended acquires the shard mutex, counting contention.
func (sh *shard) lockContended() {
	if !sh.mu.TryLock() {
		sh.contended.Add(1)
		sh.mu.Lock()
	}
}

// Store is the durable decision-task store: the lifecycle state machine,
// the journaled pool mutations, and the recovery machinery. All methods
// are safe for concurrent use.
//
// Concurrency model: tasks live in a table indexed by sequence number,
// guarded by a fixed array of shard mutexes picked by the number's low
// bits; each mutation applies and journals under its shard's mutex
// only, so votes on distinct tasks fold in parallel and share fsyncs
// through the WAL's pipelined committer. poolMu orders task creation
// (read side) against journaled pool mutations (write side): a create
// snapshots the pool and appends its record under RLock, so no pool
// write can slip between the snapshot and the record — the invariant
// byte-identical replay depends on. Lock order is poolMu before shard
// mutexes; compaction takes everything.
type Store struct {
	wal   atomic.Pointer[WAL] // nil for memory-only stores
	dir   string
	epoch uint64 // guarded by holding every lock (Open/compaction only)

	pools  *pool.Store
	eng    *jury.Engine
	now    func() time.Time
	events EventSink

	defaultJurorTimeout time.Duration
	defaultExpiry       time.Duration
	compactEvery        int
	sinceCompact        atomic.Int64
	compactGate         sync.Mutex // serializes compaction attempts
	compactions         atomic.Int64
	compactLat          obs.Histogram // compaction wall time = writer stall

	poolMu   sync.RWMutex
	tasks    taskTable
	shards   [taskShards]shard
	nextTask atomic.Uint64
	failed   atomic.Bool // sticky: a journal write failed after state applied

	nTasks, nOpen, nAwaiting, nDecided, nExpired atomic.Int64

	// Sweeper liveness: the stall watchdog reads these to tell "nothing
	// is overdue" apart from "the sweeper stopped running".
	sweeps        atomic.Int64
	lastSweepNano atomic.Int64 // unix nanos of the last completed Sweep; 0 = never
	sweepReleased atomic.Int64
	sweepExpired  atomic.Int64

	recovery RecoveryStats
}

// walFile names the epoch's log file inside dir.
func walFile(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", epoch))
}

// Open builds a Store, recovering state from Dir when set: it loads the
// compaction snapshot (if any), replays the current WAL epoch —
// truncating a torn tail — and resumes exactly where the previous
// process stopped.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		pools:               cfg.Pools,
		eng:                 cfg.Engine,
		now:                 cfg.Now,
		events:              cfg.Events,
		defaultJurorTimeout: cfg.DefaultJurorTimeout,
		defaultExpiry:       cfg.DefaultExpiry,
		compactEvery:        cfg.CompactEvery,
		dir:                 cfg.Dir,
	}
	s.tasks.startAt(0)
	if s.pools == nil {
		s.pools = pool.NewStore()
	}
	if s.eng == nil {
		s.eng = jury.NewEngine(jury.BatchOptions{})
	}
	if s.now == nil {
		s.now = func() time.Time { return time.Now().UTC() }
	}
	if s.defaultJurorTimeout <= 0 {
		s.defaultJurorTimeout = DefaultJurorTimeout
	}
	if s.defaultExpiry <= 0 {
		s.defaultExpiry = DefaultExpiry
	}
	if s.compactEvery == 0 {
		s.compactEvery = DefaultCompactEvery
	}
	if s.dir == "" {
		return s, nil
	}

	v1 := filepath.Join(s.dir, v1SnapshotFileName)
	if _, err := os.Stat(v1); err == nil {
		return nil, fmt.Errorf("%s: %w", v1, ErrV1Snapshot)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	// Records re-run in log order, which is application order; one
	// intern table serves the whole log.
	tab := newInternTable()
	wal, err := OpenWAL(walFile(s.dir, s.epoch), WALOptions{Sync: cfg.Sync, FsyncObserver: cfg.FsyncObserver},
		func(payload []byte) error {
			rec, err := decodeRecord(payload, tab)
			if err != nil {
				return err
			}
			if err := s.applyRecord(&rec); err != nil {
				return fmt.Errorf("tasks: replaying %s record: %w", rec.Type, err)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	s.wal.Store(wal)
	s.publishAll()
	st := wal.Stats()
	s.sinceCompact.Store(st.ReplayRecords)
	s.recovery.Records = st.ReplayRecords
	s.recovery.TornBytes = st.TornBytes
	s.recovery.Pools = s.pools.Len()
	s.recovery.Tasks = int(s.nTasks.Load())
	s.recovery.Duration = time.Since(start)
	s.removeStaleWALs()
	return s, nil
}

// shardFor returns the shard whose mutex guards task seq.
func (s *Store) shardFor(seq uint64) *shard {
	return &s.shards[seq%taskShards]
}

// lookup returns the task an ID names without locking, or nil.
func (s *Store) lookup(id string) *task {
	seq, ok := parseTaskID(id)
	if !ok {
		return nil
	}
	return s.tasks.get(seq)
}

// publishAll publishes every recovered task's state once, after replay
// (publication per replayed mutation would copy the state per vote for
// nothing).
func (s *Store) publishAll() {
	s.tasks.each(func(t *task) error { publish(t); return nil }) //nolint:errcheck // f never fails
}

// removeStaleWALs deletes log files from epochs other than the current
// one (left behind by a crash between compaction steps; their contents
// are covered by the snapshot).
func (s *Store) removeStaleWALs() {
	matches, err := filepath.Glob(filepath.Join(s.dir, "wal-*.log"))
	if err != nil {
		return
	}
	cur := walFile(s.dir, s.epoch)
	for _, m := range matches {
		if m != cur {
			os.Remove(m) //nolint:errcheck // best-effort cleanup
		}
	}
}

// Recovery returns what Open replayed.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Pools returns the live juror-pool store. Reads are free; mutations
// must go through PutPool/PatchPool/DeletePool to stay journaled.
func (s *Store) Pools() *pool.Store { return s.pools }

// Engine returns the shared JER engine.
func (s *Store) Engine() *jury.Engine { return s.eng }

// Durable reports whether the store journals to disk.
func (s *Store) Durable() bool { return s.wal.Load() != nil }

// lockAll acquires every mutation lock in canonical order (poolMu, then
// shards by index): compaction and Close exclude all writers.
func (s *Store) lockAll() {
	s.poolMu.Lock()
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	s.poolMu.Unlock()
}

// Close flushes and closes the WAL. Further mutations fail.
func (s *Store) Close() error {
	s.lockAll()
	defer s.unlockAll()
	w := s.wal.Load()
	if w == nil {
		return nil
	}
	return w.Close()
}

// Stats returns the lifecycle gauges and WAL counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Open:          int(s.nOpen.Load()),
		AwaitingVotes: int(s.nAwaiting.Load()),
		Decided:       int(s.nDecided.Load()),
		Expired:       int(s.nExpired.Load()),
		Tasks:         int(s.nTasks.Load()),
		Compactions:   s.compactions.Load(),
		CompactHist:   s.compactLat.Snapshot(),
		Shards:        len(s.shards),
	}
	for i := range s.shards {
		st.ShardContention += s.shards[i].contended.Load()
	}
	if w := s.wal.Load(); w != nil {
		st.WAL = w.Stats()
	}
	return st
}

// commit identifies a journaled record for the durability wait: the WAL
// instance it was appended to (a compaction may swap the store's WAL
// before the caller waits) and its sequence there.
type commit struct {
	wal *WAL
	seq uint64
}

// recBufPool recycles record-encoding buffers: AppendAsync copies the
// frame into the WAL's write buffer synchronously, so the buffer is
// reusable the moment journal returns.
var recBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// journal appends a record to the WAL (if any) without waiting for
// durability, returning the commit token to pass to waitDurable.
// Callers hold the lock that orders this mutation (the task's shard
// mutex, or poolMu for pool writes), so per-task and per-pool WAL order
// always equals application order.
func (s *Store) journal(rec *record) (commit, error) {
	w := s.wal.Load()
	if w == nil {
		return commit{}, nil
	}
	bp := recBufPool.Get().(*[]byte)
	buf, err := encodeRecord((*bp)[:0], rec)
	if err != nil {
		recBufPool.Put(bp)
		return commit{}, err
	}
	seq, err := w.AppendAsync(buf)
	*bp = buf
	recBufPool.Put(bp)
	if err != nil {
		// The in-memory state this record describes was (or is about to
		// be) applied; the journal no longer matches. Fail the store:
		// restarting and replaying the intact log is the recovery path.
		s.failed.Store(true)
		return commit{}, fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	s.sinceCompact.Add(1)
	return commit{wal: w, seq: seq}, nil
}

// waitDurable blocks until the journaled record is durable. Called
// without any store lock so concurrent mutations group-commit into
// shared fsyncs — only the responder parks here. A record's WAL may
// have been superseded by a compaction meanwhile; its Close
// acknowledged everything buffered, so the wait still ends. A traced
// request (ctx carries an obs.Trace) gets the wait recorded as a
// wal_wait span; untraced requests pay no clock reads here. A failed
// wait wraps ErrStoreFailed without failing the store.
func (s *Store) waitDurable(ctx context.Context, c commit) error {
	if c.wal == nil || c.seq == 0 {
		return nil
	}
	var err error
	if tr := obs.TraceFromContext(ctx); tr != nil {
		start := time.Now()
		err = c.wal.WaitDurable(c.seq)
		tr.Add(obs.StageWALWait, time.Since(start).Nanoseconds())
	} else {
		err = c.wal.WaitDurable(c.seq)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrStoreFailed, err)
	}
	return nil
}

// maybeCompact triggers compaction when the log has grown past the
// threshold. Called after the mutation's locks are released; the
// compaction itself stops the world (all locks, in order).
func (s *Store) maybeCompact() {
	if s.wal.Load() == nil || s.compactEvery < 0 || s.failed.Load() {
		return
	}
	if s.sinceCompact.Load() < int64(s.compactEvery) {
		return
	}
	if !s.compactGate.TryLock() {
		return // a compaction is already running
	}
	defer s.compactGate.Unlock()
	if s.sinceCompact.Load() < int64(s.compactEvery) {
		return
	}
	s.lockAll()
	defer s.unlockAll()
	if err := s.compactLocked(); err != nil {
		// Compaction failure is not fatal: the log keeps growing and the
		// next threshold crossing retries.
		s.sinceCompact.Store(0)
	}
}

// --- journaled pool mutations -------------------------------------------

// PutPool journals and applies a full pool replacement. jurors is
// journaled as passed, in the insertion order replay rebuilds; neither
// the pool nor the journal keeps it.
func (s *Store) PutPool(name string, jurors []jury.Juror) (*pool.Pool, error) {
	at := s.now()
	s.poolMu.Lock()
	if s.failed.Load() {
		s.poolMu.Unlock()
		return nil, ErrStoreFailed
	}
	p, err := s.pools.PutAt(name, jurors, at)
	if err != nil {
		s.poolMu.Unlock()
		return nil, err
	}
	c, err := s.journal(&record{Type: recPoolPut, At: at, Pool: name, Jurors: jurors})
	s.poolMu.Unlock()
	s.maybeCompact()
	if err != nil {
		return nil, err
	}
	if err := s.waitDurable(context.Background(), c); err != nil {
		return nil, err
	}
	return p, nil
}

// PatchPool journals and applies incremental pool updates.
func (s *Store) PatchPool(name string, updates []pool.JurorUpdate) (*pool.Pool, error) {
	at := s.now()
	s.poolMu.Lock()
	if s.failed.Load() {
		s.poolMu.Unlock()
		return nil, ErrStoreFailed
	}
	p, err := s.pools.PatchAt(name, updates, at)
	if err != nil {
		s.poolMu.Unlock()
		return nil, err
	}
	c, err := s.journal(&record{Type: recPoolPatch, At: at, Pool: name, Updates: updates})
	s.poolMu.Unlock()
	s.maybeCompact()
	if err != nil {
		return nil, err
	}
	if err := s.waitDurable(context.Background(), c); err != nil {
		return nil, err
	}
	return p, nil
}

// DeletePool journals and applies a pool deletion. It reports whether
// the pool existed.
func (s *Store) DeletePool(name string) (bool, error) {
	s.poolMu.Lock()
	if s.failed.Load() {
		s.poolMu.Unlock()
		return false, ErrStoreFailed
	}
	if !s.pools.Delete(name) {
		s.poolMu.Unlock()
		return false, nil
	}
	c, err := s.journal(&record{Type: recPoolDelete, Pool: name})
	s.poolMu.Unlock()
	s.maybeCompact()
	if err != nil {
		return true, err
	}
	return true, s.waitDurable(context.Background(), c)
}

// --- task lifecycle ------------------------------------------------------

// Create selects a jury for the spec from the named pool's current
// snapshot, journals the task and returns its initial view. The
// selection itself runs outside every store lock on the immutable
// snapshot.
func (s *Store) Create(ctx context.Context, spec Spec) (View, error) {
	spec, err := s.normalizeSpec(spec)
	if err != nil {
		return View{}, err
	}
	p, ok := s.pools.Get(spec.Pool)
	if !ok {
		return View{}, fmt.Errorf("%w: %q", pool.ErrPoolNotFound, spec.Pool)
	}
	sel, err := Select(ctx, s.eng, p.Sorted(), spec.Strategy, spec.Budget)
	if err != nil {
		return View{}, err
	}
	if spec.MaxInvites == 0 {
		spec.MaxInvites = 2 * len(sel.Jurors)
	}
	jurySel := make([]recJuror, len(sel.Jurors))
	for i, j := range sel.Jurors {
		jurySel[i] = recJuror{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost}
	}
	at := s.now()

	// poolMu (read side) pins the pool against journaled pool mutations
	// for the span of snapshot-read + record-append: the create record's
	// position in the log matches the pool state replay will see there.
	// Using the pre-lock snapshot would let a concurrently journaled
	// patch slip between it and the create record, making replay build a
	// different replacement-candidate view than the live task used (and
	// then reject the live run's own decline/vote records).
	s.poolMu.RLock()
	if s.failed.Load() {
		s.poolMu.RUnlock()
		return View{}, ErrStoreFailed
	}
	p, ok = s.pools.Get(spec.Pool)
	if !ok {
		s.poolMu.RUnlock()
		return View{}, fmt.Errorf("%w: %q", pool.ErrPoolNotFound, spec.Pool)
	}
	seqNo := s.nextTask.Add(1) - 1
	rec := record{
		Type:         recTaskCreate,
		At:           at,
		Seq:          seqNo,
		Spec:         &spec,
		Jury:         jurySel,
		PoolVersion:  p.Version,
		PredictedJER: sel.JER,
	}
	sh := s.shardFor(seqNo)
	sh.lockContended()
	tok, err := s.journal(&rec)
	if err != nil {
		sh.mu.Unlock()
		s.poolMu.RUnlock()
		return View{}, err
	}
	t := s.applyCreate(&rec, p.Sorted())
	publish(t)
	st := t.cur
	sh.mu.Unlock()
	s.poolMu.RUnlock()
	s.maybeCompact()
	if err := s.waitDurable(ctx, tok); err != nil {
		return View{}, err
	}
	return t.view(st), nil
}

// taskID renders a sequence number as the external task ID: "t", then
// the number in at least eight digits.
func taskID(seq uint64) string { return fmt.Sprintf("t%08d", seq) }

// parseTaskID inverts taskID, reporting false for every string taskID
// does not render, such as "t1" or "t000000001".
func parseTaskID(id string) (uint64, bool) {
	if len(id) < 9 || id[0] != 't' || len(id) > 9 && id[1] == '0' {
		return 0, false
	}
	seq, err := strconv.ParseUint(id[1:], 10, 64)
	return seq, err == nil
}

// applyCreate places the journaled task. Callers hold the shard mutex
// (live) or are single-threaded (replay).
func (s *Store) applyCreate(rec *record, candidates []jury.Juror) *task {
	t := &task{
		id:           taskID(rec.Seq),
		seq:          rec.Seq,
		spec:         *rec.Spec,
		poolVersion:  rec.PoolVersion,
		predictedJER: rec.PredictedJER,
		createdAt:    rec.At.Round(0),
		expiresAt:    rec.At.Add(rec.Spec.ExpiresIn),
		candidates:   candidates,
		cur:          &taskState{status: StatusOpen, jurors: make([]invitee, len(rec.Jury))},
	}
	for i, j := range rec.Jury {
		// Invited at creation: offset 0.
		t.cur.jurors[i].juror = t.resolve(jury.Juror{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost})
	}
	s.tasks.place(t)
	if rec.Seq >= s.nextTask.Load() { // replay only: a live create took its number
		s.nextTask.Store(rec.Seq + 1)
	}
	s.nTasks.Add(1)
	s.nOpen.Add(1)
	s.emitCreated(t, rec)
	return t
}

// Get renders the task's current view from its published state, with
// no lock. A task whose Create has not yet published its first state
// reads as not found, like a task not yet inserted.
func (s *Store) Get(id string) (View, error) {
	if t := s.lookup(id); t != nil {
		if st := t.snap.Load(); st != nil {
			return t.view(st), nil
		}
	}
	return View{}, fmt.Errorf("%w: %q", ErrTaskNotFound, id)
}

// List returns every task's view in creation order, optionally filtered
// by status ("" = all). Lock-free: it renders the published states. The
// result is sized by the status gauge, so a filter that matches nothing
// allocates nothing.
func (s *Store) List(status Status) []View {
	var n int64
	if g := s.gauge(status); g != nil {
		n = g.Load()
	}
	out := make([]View, 0, n)
	s.tasks.each(func(t *task) error { //nolint:errcheck // f never fails
		// nil: Create has placed the task but not yet published it.
		if st := t.snap.Load(); st != nil && (status == "" || st.status == status) {
			out = append(out, t.view(st))
		}
		return nil
	})
	return out
}

// checkVote validates a prospective vote/decline without mutating, and
// returns the juror's index.
func checkVote(t *task, jurorID string) (int, error) {
	if st := t.cur.status; st.closed() {
		return 0, fmt.Errorf("%w: %s is %s", ErrTaskClosed, t.id, st)
	}
	i := t.find(jurorID)
	if i < 0 {
		return 0, fmt.Errorf("%w: %q on task %s", ErrNotInvited, jurorID, t.id)
	}
	switch t.cur.jurors[i].state {
	case codeVoted:
		return 0, fmt.Errorf("%w: %q on task %s", ErrAlreadyVoted, jurorID, t.id)
	case codeDeclined, codeTimedOut:
		return 0, fmt.Errorf("%w: %q on task %s", ErrJurorReleased, jurorID, t.id)
	}
	return i, nil
}

// Vote records one juror's vote, folds it into the posterior, and closes
// the task when the confidence target is crossed (sequential early stop)
// or the jury is exhausted.
func (s *Store) Vote(ctx context.Context, id, jurorID string, voteYes bool) (View, error) {
	t, st, c, err := s.answer(id, jurorID, sharedBool(voteYes))
	if err != nil {
		return View{}, err
	}
	if err := s.waitDurable(ctx, c); err != nil {
		return View{}, err
	}
	return t.view(st), nil
}

// Decline releases a juror who refused the invitation and invites the
// next-best replacement under the remaining budget.
func (s *Store) Decline(ctx context.Context, id, jurorID string) (View, error) {
	t, st, c, err := s.answer(id, jurorID, nil)
	if err != nil {
		return View{}, err
	}
	if err := s.waitDurable(ctx, c); err != nil {
		return View{}, err
	}
	return t.view(st), nil
}

// answer journals and applies one juror's vote, or, with a nil vote, a
// decline. It returns the task and the state it published, from which
// the caller renders the view outside the shard lock, and the record's
// commit, which the caller waits on before it answers.
func (s *Store) answer(id, jurorID string, vote *bool) (*task, *taskState, commit, error) {
	at := s.now()
	if s.failed.Load() {
		return nil, nil, commit{}, ErrStoreFailed
	}
	t := s.lookup(id)
	if t == nil {
		return nil, nil, commit{}, fmt.Errorf("%w: %q", ErrTaskNotFound, id)
	}
	sh := s.shardFor(t.seq)
	sh.lockContended()
	i, err := checkVote(t, jurorID)
	if err != nil {
		sh.mu.Unlock()
		return nil, nil, commit{}, err
	}
	rec := record{Type: recVote, At: at, Task: id, Juror: jurorID, Vote: vote}
	if vote == nil {
		rec.Type = recDecline
	}
	c, err := s.journal(&rec)
	if err != nil {
		sh.mu.Unlock()
		return nil, nil, commit{}, err
	}
	if vote != nil {
		s.applyVote(t, i, *vote, at)
	} else {
		s.applyDecline(t, i, false, at)
	}
	publish(t)
	st := t.cur
	sh.mu.Unlock()
	s.maybeCompact()
	return t, st, c, nil
}

// applyVote applies a validated vote by juror i. Callers hold the shard
// mutex.
func (s *Store) applyVote(t *task, i int, voteYes bool, at time.Time) {
	st := t.edit(len(t.cur.jurors))
	e := &st.jurors[i]
	e.state, e.vote = codeVoted, voteCode(voteYes)
	j := t.juror(*e)
	// The rate was validated at pool ingest and pinned at invitation, so
	// Observe cannot fail.
	st.post.Observe(voteYes, j.ErrorRate) //nolint:errcheck
	if s.events != nil {
		s.events.TaskEvent(Event{Type: EvVoteRecorded, Task: t.id, At: at,
			Juror: j.ID, ErrorRate: j.ErrorRate, Vote: voteYes,
			LatencyNS: at.Sub(t.invitedAt(st, *e)).Nanoseconds()})
	}
	if st.status == StatusOpen {
		s.setStatus(st, StatusAwaitingVotes)
	}
	s.closeCheck(t, st, at)
}

// VoteBatch applies ballots to one task in order; early stop depends on
// the order, so it is kept exactly. Once the task closes, the remaining
// ballots are skipped without touching it. A malformed ballot, or one
// the task rejects, is a per-item error. An unknown task fails the whole
// batch, and so does a failed durability wait (ErrStoreFailed): the
// batch waits once, on the last applied ballot's commit, which covers
// the earlier ones because the log is ordered, so when it fails no
// applied ballot is known durable. The view is the task after the last
// applied ballot, or its current view when none applied.
func (s *Store) VoteBatch(ctx context.Context, id string, ballots []Ballot) ([]BallotResult, View, error) {
	results := make([]BallotResult, len(ballots))
	var (
		t      *task
		last   *taskState // published by the last applied ballot
		lastC  commit     // the last applied ballot's record
		closed bool
	)
	for i, b := range ballots {
		res := &results[i]
		res.JurorID = b.JurorID
		if closed {
			res.Skipped = true
			continue
		}
		if err := b.Check(); err != nil {
			res.Error = err.Error()
			continue
		}
		// Check leaves Vote nil exactly when the ballot declines.
		bt, st, c, err := s.answer(id, b.JurorID, b.Vote)
		switch {
		case errors.Is(err, ErrTaskNotFound):
			return nil, View{}, err
		case errors.Is(err, ErrTaskClosed):
			res.Skipped = true
			closed = true
		case err != nil:
			res.Error = err.Error()
		default:
			res.Applied = true
			t, last, lastC = bt, st, c
			closed = st.status.closed()
		}
	}
	if last == nil {
		v, err := s.Get(id)
		if err != nil {
			return nil, View{}, err
		}
		return results, v, nil
	}
	if err := s.waitDurable(ctx, lastC); err != nil {
		return nil, View{}, err
	}
	return results, t.view(last), nil
}

// applyDecline releases juror i, invites a replacement when one fits,
// and re-checks closure. Callers hold the shard mutex.
func (s *Store) applyDecline(t *task, i int, timeout bool, at time.Time) {
	k, replace := t.replacement(i)
	n := len(t.cur.jurors)
	if replace {
		n++
	}
	st := t.edit(n)
	e := &st.jurors[i]
	e.state = codeDeclined
	if timeout {
		e.state = codeTimedOut
	}
	st.declines++
	if s.events != nil {
		j := t.juror(*e)
		s.events.TaskEvent(Event{Type: EvJurorReleased, Task: t.id, At: at,
			Juror: j.ID, ErrorRate: j.ErrorRate, Timeout: timeout})
	}
	if replace {
		st.jurors[n-1] = t.invite(st, uint32(k), at)
		if s.events != nil {
			c := &t.candidates[k]
			s.events.TaskEvent(Event{Type: EvJurorInvited, Task: t.id, At: at,
				Juror: c.ID, ErrorRate: c.ErrorRate})
		}
	}
	s.closeCheck(t, st, at)
}

// closeCheck applies the sequential stopping rule to st, the task's
// state being edited. Callers hold the shard mutex.
func (s *Store) closeCheck(t *task, st *taskState, at time.Time) {
	if st.status.closed() {
		return
	}
	answer, conf := st.post.Verdict()
	if t.spec.TargetConfidence < 1 && conf >= t.spec.TargetConfidence {
		st.verdict = &Verdict{Answer: answer, Confidence: conf,
			EarlyStopped: st.pending() > 0, DecidedAt: at}
		s.setStatus(st, StatusDecided)
		s.emitClosed(t, st, at)
		return
	}
	if st.pending() > 0 {
		return
	}
	// Jury exhausted below the target: emit the MAP verdict if the
	// evidence favours one answer at all, otherwise expire undecided.
	if st.post.Decisive() {
		st.verdict = &Verdict{Answer: answer, Confidence: conf, DecidedAt: at}
		s.setStatus(st, StatusDecided)
		s.emitClosed(t, st, at)
		return
	}
	s.setStatus(st, StatusExpired)
	s.emitClosed(t, st, at)
}

// Sweep applies wall-clock policy at the given instant: tasks past their
// expiry close without a verdict, and invited jurors past the juror
// timeout are released (journaled as timeout declines, with
// replacements invited under the remaining budget). It returns how many
// jurors were released and how many tasks expired. juryd calls it on a
// timer; tests call it with explicit clocks.
//
// The scan reads the published states (spec and expiry are immutable
// after creation); each resulting action revalidates under its task's
// shard mutex before journaling.
func (s *Store) Sweep(now time.Time) (released, expired int, err error) {
	if s.failed.Load() {
		return 0, 0, ErrStoreFailed
	}
	type action struct {
		t     *task
		juror string // "" = expire the task
	}
	var acts []action
	s.tasks.each(func(t *task) error { //nolint:errcheck // f never fails
		st := t.snap.Load()
		if st == nil || st.status.closed() {
			return nil
		}
		if !now.Before(t.expiresAt) {
			acts = append(acts, action{t: t})
			return nil
		}
		for _, e := range st.jurors {
			if e.state == codeInvited && !now.Before(t.invitedAt(st, e).Add(t.spec.JurorTimeout)) {
				acts = append(acts, action{t: t, juror: t.juror(e).ID})
			}
		}
		return nil
	})
	var lastCommit commit
	for _, a := range acts {
		t, sh := a.t, s.shardFor(a.t.seq)
		sh.lockContended()
		if t.cur.status.closed() {
			sh.mu.Unlock()
			continue // closed since the scan (a vote, or an earlier action)
		}
		if a.juror == "" {
			c, jerr := s.journal(&record{Type: recExpire, At: now, Task: t.id})
			if jerr != nil {
				sh.mu.Unlock()
				return released, expired, jerr
			}
			lastCommit = c
			s.applyExpire(t, now)
			publish(t)
			expired++
		} else {
			i, cerr := checkVote(t, a.juror)
			if cerr != nil {
				sh.mu.Unlock()
				continue // voted or released since the scan (replacement chains)
			}
			c, jerr := s.journal(&record{Type: recDecline, At: now, Task: t.id, Juror: a.juror, Timeout: true})
			if jerr != nil {
				sh.mu.Unlock()
				return released, expired, jerr
			}
			lastCommit = c
			s.applyDecline(t, i, true, now)
			publish(t)
			released++
		}
		sh.mu.Unlock()
	}
	s.maybeCompact()
	s.sweepReleased.Add(int64(released))
	s.sweepExpired.Add(int64(expired))
	s.sweeps.Add(1)
	s.lastSweepNano.Store(now.UnixNano())
	return released, expired, s.waitDurable(context.Background(), lastCommit)
}

// SweepProgress is the sweeper's liveness record: how often it has run
// and what it has done. The stall watchdog reads it to distinguish
// "nothing was overdue" from "the sweeper stopped running".
type SweepProgress struct {
	// Sweeps counts completed Sweep calls since open.
	Sweeps int64
	// LastSweepAt is the `now` passed to the most recent completed Sweep
	// (zero before the first).
	LastSweepAt time.Time
	// Released and Expired total the sweeper's actions since open.
	Released int64
	Expired  int64
}

// SweepProgress returns the sweeper's liveness counters.
func (s *Store) SweepProgress() SweepProgress {
	p := SweepProgress{
		Sweeps:   s.sweeps.Load(),
		Released: s.sweepReleased.Load(),
		Expired:  s.sweepExpired.Load(),
	}
	if ns := s.lastSweepNano.Load(); ns != 0 {
		p.LastSweepAt = time.Unix(0, ns).UTC()
	}
	return p
}

// StalledInvites scans for invited jurors whose juror timeout elapsed
// at least grace ago without the sweeper releasing them — the signal
// that sweeping has stalled (a healthy sweeper releases overdue jurors
// within one interval). It returns the number of open tasks carrying at
// least one such juror and the largest overdue amount (time past
// timeout+grace). The scan is lock-free: published states plus the
// immutable spec.
func (s *Store) StalledInvites(now time.Time, grace time.Duration) (tasks int, oldest time.Duration) {
	if grace < 0 {
		grace = 0
	}
	s.tasks.each(func(t *task) error { //nolint:errcheck // f never fails
		st := t.snap.Load()
		if st == nil || st.status.closed() {
			return nil
		}
		stalled := false
		for _, e := range st.jurors {
			if e.state != codeInvited {
				continue
			}
			overdue := now.Sub(t.invitedAt(st, e).Add(t.spec.JurorTimeout + grace))
			if overdue >= 0 {
				stalled = true
				if overdue > oldest {
					oldest = overdue
				}
			}
		}
		if stalled {
			tasks++
		}
		return nil
	})
	return tasks, oldest
}

// applyExpire closes the task without a verdict. Callers hold the shard
// mutex.
func (s *Store) applyExpire(t *task, at time.Time) {
	if t.cur.status.closed() {
		return
	}
	st := t.edit(len(t.cur.jurors))
	s.setStatus(st, StatusExpired)
	s.emitClosed(t, st, at)
}

// gauge returns the counter of tasks in status st, every task's for "",
// and nil for a status no task takes.
func (s *Store) gauge(st Status) *atomic.Int64 {
	switch st {
	case "":
		return &s.nTasks
	case StatusOpen:
		return &s.nOpen
	case StatusAwaitingVotes:
		return &s.nAwaiting
	case StatusDecided:
		return &s.nDecided
	case StatusExpired:
		return &s.nExpired
	}
	return nil
}

// setStatus transitions the state being edited and maintains the
// gauges. Callers hold the shard mutex.
func (s *Store) setStatus(st *taskState, next Status) {
	s.gauge(st.status).Add(-1)
	st.status = next
	s.gauge(next).Add(1)
}

// applyRecord replays one journaled mutation. Records passed validation
// before being journaled, so failures indicate a corrupted or
// out-of-order log and abort recovery. Replay is single-threaded: no
// locks are taken.
func (s *Store) applyRecord(rec *record) error {
	switch rec.Type {
	case recPoolPut:
		_, err := s.pools.PutAt(rec.Pool, rec.Jurors, rec.At)
		return err
	case recPoolPatch:
		_, err := s.pools.PatchAt(rec.Pool, rec.Updates, rec.At)
		return err
	case recPoolDelete:
		s.pools.Delete(rec.Pool)
		return nil
	case recTaskCreate:
		if rec.Spec == nil {
			return errors.New("tasks: create record missing spec")
		}
		if err := s.checkRecovered(rec.Seq); err != nil {
			return err
		}
		var candidates []jury.Juror
		if p, ok := s.pools.Get(rec.Spec.Pool); ok {
			candidates = p.Sorted()
		}
		s.applyCreate(rec, candidates)
		return nil
	case recVote:
		t := s.lookup(rec.Task)
		if t == nil {
			return fmt.Errorf("%w: %q", ErrTaskNotFound, rec.Task)
		}
		if rec.Vote == nil {
			return errors.New("tasks: vote record missing vote")
		}
		i, err := checkVote(t, rec.Juror)
		if err != nil {
			return err
		}
		s.applyVote(t, i, *rec.Vote, rec.At)
		return nil
	case recDecline:
		t := s.lookup(rec.Task)
		if t == nil {
			return fmt.Errorf("%w: %q", ErrTaskNotFound, rec.Task)
		}
		i, err := checkVote(t, rec.Juror)
		if err != nil {
			return err
		}
		s.applyDecline(t, i, rec.Timeout, rec.At)
		return nil
	case recExpire:
		t := s.lookup(rec.Task)
		if t == nil {
			return fmt.Errorf("%w: %q", ErrTaskNotFound, rec.Task)
		}
		s.applyExpire(t, rec.At)
		return nil
	default:
		return fmt.Errorf("tasks: unknown wal record type %q", rec.Type)
	}
}

// checkRecovered reports why recovery may not place a task at seq: the
// number lies below the table's first chunk or maxTaskGap or more past
// the next one the store would assign, or is taken.
func (s *Store) checkRecovered(seq uint64) error {
	lo, hi := s.tasks.dir.Load().base<<taskChunkBits, s.nextTask.Load()+maxTaskGap
	switch {
	case seq < lo || seq >= hi:
		return fmt.Errorf("task number %d outside [%d, %d)", seq, lo, hi)
	case s.tasks.get(seq) != nil:
		return fmt.Errorf("task number %d reused", seq)
	}
	return nil
}
