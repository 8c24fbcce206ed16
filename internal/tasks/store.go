package tasks

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/estimate"
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
	// DefaultTaskShards is the task-store shard count (rounded up to a
	// power of two if configured otherwise). Votes on tasks in different
	// shards fold under different mutexes.
	DefaultTaskShards = 32
	// maxTaskShards bounds a configured shard count.
	maxTaskShards = 1024
)

// ErrStoreFailed reports that a previous journal write failed: the
// in-memory state may be ahead of the log, so further mutations are
// refused until the process restarts and replays.
var ErrStoreFailed = errors.New("tasks: store failed (journal write error)")

// Config configures Open. The zero value of every field selects a
// sensible default; an empty Dir selects a memory-only store (no
// durability — tests, simulations and ephemeral deployments).
type Config struct {
	// Dir is the WAL directory ("" = memory-only).
	Dir string
	// Sync is the WAL durability mode (default SyncBatch).
	Sync SyncMode
	// Shards is the task-store shard count (0 = DefaultTaskShards;
	// rounded up to a power of two). 1 degenerates to a global lock.
	Shards int
	// Engine is the shared JER engine; nil constructs a default one.
	Engine *jury.Engine
	// Pools is the live juror-pool store the tasks select from; nil
	// constructs an empty one. All pool mutations must flow through the
	// task store (PutPool/PatchPool/DeletePool) so they are journaled.
	Pools *pool.Store
	// CompactEvery triggers snapshot compaction after that many WAL
	// records (0 = DefaultCompactEvery, negative = never).
	CompactEvery int
	// DefaultJurorTimeout, DefaultExpiry and DefaultTargetConfidence fill
	// unset Spec fields at creation.
	DefaultJurorTimeout     time.Duration
	DefaultExpiry           time.Duration
	DefaultTargetConfidence float64
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
	// Shards is the configured shard count; ShardContention counts
	// mutations that found their shard's mutex already held (a TryLock
	// miss — the cross-task serialization the sharding exists to avoid).
	Shards          int
	ShardContention int64
	WAL             WALStats
}

// taskNode is one link in a shard bucket chain, immutable once a reader
// can observe it.
type taskNode struct {
	t    *task
	next *taskNode
}

// taskIndex is a shard's lock-free hash index: a bucket array of
// atomically published chain heads. Readers load a head and walk;
// writers (holding the shard mutex) push fresh nodes onto heads, so an
// insert is O(1) — a COW map here would copy the whole shard per create
// and make task creation quadratic in store size. Tasks are never
// removed (compaction snapshots them, it does not drop them), so chains
// only grow, and when the average chain passes taskIndexLoad the index
// is rebuilt at double width and swapped in whole.
type taskIndex struct {
	buckets []atomic.Pointer[taskNode]
	mask    uint32
}

const (
	taskIndexMinBuckets = 8
	taskIndexLoad       = 4 // max average chain length before doubling
)

func newTaskIndex(buckets int) *taskIndex {
	return &taskIndex{buckets: make([]atomic.Pointer[taskNode], buckets), mask: uint32(buckets - 1)}
}

// bucket picks the chain for a task-ID hash. The shard was picked from
// the hash's low bits, so the bucket uses the bits above the maximum
// shard mask.
func (ix *taskIndex) bucket(h uint32) *atomic.Pointer[taskNode] {
	return &ix.buckets[(h>>10)&ix.mask]
}

// taskHash is FNV-1a over the task ID; the low bits pick the shard and
// the high bits the bucket within it.
func taskHash(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return h
}

// shard is one slice of the task index. Mutations hold mu; reads load
// the index pointer and each task's published view snapshot, so GET and
// the sweeper's scan take no locks at all (same idiom as the pool
// store's 9ns snapshot reads).
type shard struct {
	mu        sync.Mutex
	idx       atomic.Pointer[taskIndex]
	count     int // tasks in this shard; guarded by mu
	contended atomic.Int64
}

// lockContended acquires the shard mutex, counting contention.
func (sh *shard) lockContended() {
	if !sh.mu.TryLock() {
		sh.contended.Add(1)
		sh.mu.Lock()
	}
}

// get returns the task without locking.
func (sh *shard) get(id string) *task {
	for n := sh.idx.Load().bucket(taskHash(id)).Load(); n != nil; n = n.next {
		if n.t.id == id {
			return n.t
		}
	}
	return nil
}

// insert adds a task. Callers hold sh.mu (or are the only goroutine,
// during recovery).
func (sh *shard) insert(t *task) {
	idx := sh.idx.Load()
	if sh.count+1 > len(idx.buckets)*taskIndexLoad {
		idx = sh.rebuild(idx)
	}
	b := idx.bucket(taskHash(t.id))
	b.Store(&taskNode{t: t, next: b.Load()})
	sh.count++
}

// rebuild doubles the index. The new buckets are filled before the
// index pointer is published, so readers see either the old complete
// index or the new one.
func (sh *shard) rebuild(old *taskIndex) *taskIndex {
	next := newTaskIndex(len(old.buckets) * 2)
	for i := range old.buckets {
		for n := old.buckets[i].Load(); n != nil; n = n.next {
			b := next.bucket(taskHash(n.t.id))
			b.Store(&taskNode{t: n.t, next: b.Load()})
		}
	}
	sh.idx.Store(next)
	return next
}

// forEach visits every task in the shard (lock-free; the snapshot is
// whatever index was published at the load).
func (sh *shard) forEach(f func(*task)) {
	idx := sh.idx.Load()
	for i := range idx.buckets {
		for n := idx.buckets[i].Load(); n != nil; n = n.next {
			f(n.t)
		}
	}
}

// Store is the durable decision-task store: the lifecycle state machine,
// the journaled pool mutations, and the recovery machinery. All methods
// are safe for concurrent use.
//
// Concurrency model: tasks live in a fixed shard array keyed by task-ID
// hash; each mutation applies and journals under its shard's mutex
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
	defaultTarget       float64
	compactEvery        int
	sinceCompact        atomic.Int64
	compactGate         sync.Mutex // serializes compaction attempts
	compactions         atomic.Int64

	poolMu    sync.RWMutex
	shards    []shard
	shardMask uint32
	nextTask  atomic.Uint64
	failed    atomic.Bool // sticky: a journal write failed after state applied

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

// snapshotFileName is the compaction snapshot inside dir.
const snapshotFileName = "snapshot.json"

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
		defaultTarget:       cfg.DefaultTargetConfidence,
		compactEvery:        cfg.CompactEvery,
		dir:                 cfg.Dir,
	}
	nShards := cfg.Shards
	if nShards <= 0 {
		nShards = DefaultTaskShards
	}
	if nShards > maxTaskShards {
		nShards = maxTaskShards
	}
	for nShards&(nShards-1) != 0 {
		nShards++
	}
	s.shards = make([]shard, nShards)
	s.shardMask = uint32(nShards - 1)
	for i := range s.shards {
		s.shards[i].idx.Store(newTaskIndex(taskIndexMinBuckets))
	}
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
	if s.defaultTarget == 0 {
		s.defaultTarget = estimate.DefaultTargetConfidence
	}
	if s.compactEvery == 0 {
		s.compactEvery = DefaultCompactEvery
	}
	if s.dir == "" {
		return s, nil
	}

	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	walPath := walFile(s.dir, s.epoch)
	wal, records, err := OpenWAL(walPath, WALOptions{Sync: cfg.Sync, FsyncObserver: cfg.FsyncObserver})
	if err != nil {
		return nil, err
	}
	s.wal.Store(wal)
	if err := s.replayRecords(records); err != nil {
		wal.Close() //nolint:errcheck
		return nil, fmt.Errorf("%s: %w", walPath, err)
	}
	s.publishAll()
	s.sinceCompact.Store(int64(len(records)))
	st := wal.Stats()
	s.recovery.Records = st.ReplayRecords
	s.recovery.TornBytes = st.TornBytes
	s.recovery.Pools = s.pools.Len()
	s.recovery.Tasks = int(s.nTasks.Load())
	s.recovery.Duration = time.Since(start)
	s.removeStaleWALs()
	return s, nil
}

// shardFor hashes a task ID (FNV-1a) onto its shard.
func (s *Store) shardFor(id string) *shard {
	return &s.shards[taskHash(id)&s.shardMask]
}

// lookup returns the task without locking (index load + chain walk).
func (s *Store) lookup(id string) *task {
	return s.shardFor(id).get(id)
}

// publish re-renders the task's lock-free view snapshot. Callers hold
// the task's shard mutex (or are single-threaded, during recovery).
func publish(t *task) View {
	v := t.view()
	t.snap.Store(&v)
	return v
}

// publishAll renders every recovered task's snapshot once, after replay
// (per-mutation publication during replay would render a full view per
// vote for nothing).
func (s *Store) publishAll() {
	for i := range s.shards {
		s.shards[i].forEach(func(t *task) { publish(t) })
	}
}

// tasksSorted returns every task ordered by ID — creation order, since
// IDs are zero-padded sequence numbers.
func (s *Store) tasksSorted() []*task {
	out := make([]*task, 0, s.nTasks.Load())
	for i := range s.shards {
		s.shards[i].forEach(func(t *task) { out = append(out, t) })
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
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
// wal_wait span; untraced requests pay no clock reads here.
func (s *Store) waitDurable(ctx context.Context, c commit) error {
	if c.wal == nil || c.seq == 0 {
		return nil
	}
	if tr := obs.TraceFromContext(ctx); tr != nil {
		start := time.Now()
		err := c.wal.WaitDurable(c.seq)
		tr.Add(obs.StageWALWait, time.Since(start).Nanoseconds())
		return err
	}
	return c.wal.WaitDurable(c.seq)
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

// PutPool journals and applies a full pool replacement.
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
	states := make([]pool.JurorState, len(jurors))
	for i, j := range jurors {
		states[i] = pool.JurorState{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost}
	}
	c, err := s.journal(&record{Type: recPoolPut, At: at, Pool: name, Jurors: states})
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
	var sel jury.Selection
	if spec.Strategy == StrategyPay {
		sel, err = s.eng.SelectBudgetedContext(ctx, p.Sorted(), spec.Budget)
	} else {
		sel, err = s.eng.SelectAltruisticSnapshot(ctx, p.Sorted())
	}
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
	id := taskID(seqNo)
	sh := s.shardFor(id)
	sh.lockContended()
	tok, err := s.journal(&rec)
	if err != nil {
		sh.mu.Unlock()
		s.poolMu.RUnlock()
		return View{}, err
	}
	t := s.applyCreate(sh, &rec, p.Sorted())
	view := publish(t)
	sh.mu.Unlock()
	s.poolMu.RUnlock()
	s.maybeCompact()
	if err := s.waitDurable(ctx, tok); err != nil {
		return View{}, err
	}
	return view, nil
}

// taskID renders a sequence number as the external task ID. Zero-padded,
// so lexicographic ID order is creation order.
func taskID(seq uint64) string { return fmt.Sprintf("t%08d", seq) }

// applyCreate inserts the journaled task. Callers hold the shard mutex
// (live) or are single-threaded (replay).
func (s *Store) applyCreate(sh *shard, rec *record, candidates []jury.Juror) *task {
	t := &task{
		id:           taskID(rec.Seq),
		spec:         *rec.Spec,
		status:       StatusOpen,
		poolVersion:  rec.PoolVersion,
		predictedJER: rec.PredictedJER,
		createdAt:    rec.At,
		expiresAt:    rec.At.Add(rec.Spec.ExpiresIn),
		jurors:       make([]TaskJuror, len(rec.Jury)),
		index:        make(map[string]int, len(rec.Jury)),
		candidates:   candidates,
	}
	for i, j := range rec.Jury {
		t.jurors[i] = TaskJuror{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost,
			State: JurorInvited, InvitedAt: rec.At}
		t.index[j.ID] = i
	}
	sh.insert(t)
	for next := s.nextTask.Load(); rec.Seq >= next; next = s.nextTask.Load() {
		if s.nextTask.CompareAndSwap(next, rec.Seq+1) {
			break
		}
	}
	s.nTasks.Add(1)
	s.nOpen.Add(1)
	s.emitCreated(t, rec)
	return t
}

// Get returns the task's current view: two atomic loads, no locks. A
// task whose Create has not yet published its first view reads as not
// found, like a task not yet inserted.
func (s *Store) Get(id string) (View, error) {
	var v *View
	if t := s.lookup(id); t != nil {
		v = t.snap.Load()
	}
	if v == nil {
		return View{}, fmt.Errorf("%w: %q", ErrTaskNotFound, id)
	}
	return *v, nil
}

// List returns every task's view in creation order, optionally filtered
// by status ("" = all). Lock-free: it reads the published snapshots.
func (s *Store) List(status Status) []View {
	ts := s.tasksSorted()
	out := make([]View, 0, len(ts))
	for _, t := range ts {
		v := t.snap.Load()
		if v == nil || (status != "" && v.Status != status) {
			continue // nil: Create has inserted the task but not yet published it
		}
		out = append(out, *v)
	}
	return out
}

// checkVote validates a prospective vote/decline without mutating.
func checkVote(t *task, jurorID string) (int, error) {
	if t.status.closed() {
		return 0, fmt.Errorf("%w: %s is %s", ErrTaskClosed, t.id, t.status)
	}
	i, ok := t.index[jurorID]
	if !ok {
		return 0, fmt.Errorf("%w: %q on task %s", ErrNotInvited, jurorID, t.id)
	}
	switch t.jurors[i].State {
	case JurorVoted:
		return 0, fmt.Errorf("%w: %q on task %s", ErrAlreadyVoted, jurorID, t.id)
	case JurorDeclined, JurorTimedOut:
		return 0, fmt.Errorf("%w: %q on task %s", ErrJurorReleased, jurorID, t.id)
	}
	return i, nil
}

// Vote records one juror's vote, folds it into the posterior, and closes
// the task when the confidence target is crossed (sequential early stop)
// or the jury is exhausted.
func (s *Store) Vote(ctx context.Context, id, jurorID string, voteYes bool) (View, error) {
	at := s.now()
	if s.failed.Load() {
		return View{}, ErrStoreFailed
	}
	sh := s.shardFor(id)
	sh.lockContended()
	t := sh.get(id)
	if t == nil {
		sh.mu.Unlock()
		return View{}, fmt.Errorf("%w: %q", ErrTaskNotFound, id)
	}
	if _, err := checkVote(t, jurorID); err != nil {
		sh.mu.Unlock()
		return View{}, err
	}
	v := voteYes
	c, err := s.journal(&record{Type: recVote, At: at, Task: id, Juror: jurorID, Vote: &v})
	if err != nil {
		sh.mu.Unlock()
		return View{}, err
	}
	s.applyVote(t, jurorID, voteYes, at)
	view := publish(t)
	sh.mu.Unlock()
	s.maybeCompact()
	if err := s.waitDurable(ctx, c); err != nil {
		return View{}, err
	}
	return view, nil
}

// applyVote applies a validated vote. Callers hold the shard mutex.
func (s *Store) applyVote(t *task, jurorID string, voteYes bool, at time.Time) {
	i := t.index[jurorID]
	v := voteYes
	t.jurors[i].Vote = &v
	t.jurors[i].State = JurorVoted
	// The rate was validated at pool ingest and pinned at invitation, so
	// Observe cannot fail.
	t.post.Observe(voteYes, t.jurors[i].ErrorRate) //nolint:errcheck
	if s.events != nil {
		s.events.TaskEvent(Event{Type: EvVoteRecorded, Task: t.id, At: at,
			Juror: jurorID, ErrorRate: t.jurors[i].ErrorRate, Vote: voteYes,
			LatencyNS: at.Sub(t.jurors[i].InvitedAt).Nanoseconds()})
	}
	if t.status == StatusOpen {
		s.setStatus(t, StatusAwaitingVotes)
	}
	s.closeCheck(t, at)
}

// Decline releases a juror who refused the invitation and invites the
// next-best replacement under the remaining budget.
func (s *Store) Decline(ctx context.Context, id, jurorID string) (View, error) {
	return s.decline(ctx, id, jurorID, false)
}

func (s *Store) decline(ctx context.Context, id, jurorID string, timeout bool) (View, error) {
	at := s.now()
	if s.failed.Load() {
		return View{}, ErrStoreFailed
	}
	sh := s.shardFor(id)
	sh.lockContended()
	t := sh.get(id)
	if t == nil {
		sh.mu.Unlock()
		return View{}, fmt.Errorf("%w: %q", ErrTaskNotFound, id)
	}
	if _, err := checkVote(t, jurorID); err != nil {
		sh.mu.Unlock()
		return View{}, err
	}
	c, err := s.journal(&record{Type: recDecline, At: at, Task: id, Juror: jurorID, Timeout: timeout})
	if err != nil {
		sh.mu.Unlock()
		return View{}, err
	}
	s.applyDecline(t, jurorID, timeout, at)
	view := publish(t)
	sh.mu.Unlock()
	s.maybeCompact()
	if err := s.waitDurable(ctx, c); err != nil {
		return View{}, err
	}
	return view, nil
}

// applyDecline releases the juror, invites a replacement when one fits,
// and re-checks closure. Callers hold the shard mutex.
func (s *Store) applyDecline(t *task, jurorID string, timeout bool, at time.Time) {
	i := t.index[jurorID]
	if timeout {
		t.jurors[i].State = JurorTimedOut
	} else {
		t.jurors[i].State = JurorDeclined
	}
	t.declines++
	if s.events != nil {
		s.events.TaskEvent(Event{Type: EvJurorReleased, Task: t.id, At: at,
			Juror: jurorID, ErrorRate: t.jurors[i].ErrorRate, Timeout: timeout})
	}
	s.inviteReplacement(t, at)
	s.closeCheck(t, at)
}

// inviteReplacement invites the next-best candidate from the task's
// creation snapshot: lowest ε not yet invited and, under the pay
// strategy, fitting the budget freed by releases. Deterministic — the
// candidate view is ε-sorted and immutable — so WAL replay re-derives
// the same invitation.
func (s *Store) inviteReplacement(t *task, at time.Time) {
	if t.status.closed() || len(t.jurors) >= t.spec.MaxInvites {
		return
	}
	var remaining float64
	if t.spec.Strategy == StrategyPay {
		remaining = t.spec.Budget - t.committedCost()
	}
	for _, c := range t.candidates {
		if _, invited := t.index[c.ID]; invited {
			continue
		}
		if t.spec.Strategy == StrategyPay && c.Cost > remaining {
			continue
		}
		t.jurors = append(t.jurors, TaskJuror{ID: c.ID, ErrorRate: c.ErrorRate, Cost: c.Cost,
			State: JurorInvited, InvitedAt: at})
		t.index[c.ID] = len(t.jurors) - 1
		if s.events != nil {
			s.events.TaskEvent(Event{Type: EvJurorInvited, Task: t.id, At: at,
				Juror: c.ID, ErrorRate: c.ErrorRate})
		}
		return
	}
}

// closeCheck applies the sequential stopping rule. Callers hold the
// shard mutex.
func (s *Store) closeCheck(t *task, at time.Time) {
	if t.status.closed() {
		return
	}
	answer, conf := t.post.Verdict()
	if t.spec.TargetConfidence < 1 && conf >= t.spec.TargetConfidence {
		t.verdict = &Verdict{Answer: answer, Confidence: conf,
			EarlyStopped: t.pending() > 0, DecidedAt: at}
		s.setStatus(t, StatusDecided)
		s.emitClosed(t, at)
		return
	}
	if t.pending() > 0 {
		return
	}
	// Jury exhausted below the target: emit the MAP verdict if the
	// evidence favours one answer at all, otherwise expire undecided.
	if t.post.Decisive() {
		t.verdict = &Verdict{Answer: answer, Confidence: conf, DecidedAt: at}
		s.setStatus(t, StatusDecided)
		s.emitClosed(t, at)
		return
	}
	s.setStatus(t, StatusExpired)
	s.emitClosed(t, at)
}

// Sweep applies wall-clock policy at the given instant: tasks past their
// expiry close without a verdict, and invited jurors past the juror
// timeout are released (journaled as timeout declines, with
// replacements invited under the remaining budget). It returns how many
// jurors were released and how many tasks expired. juryd calls it on a
// timer; tests call it with explicit clocks.
//
// The scan reads the lock-free view snapshots (spec and expiry are
// immutable after creation); each resulting action revalidates under
// its task's shard mutex before journaling.
func (s *Store) Sweep(now time.Time) (released, expired int, err error) {
	if s.failed.Load() {
		return 0, 0, ErrStoreFailed
	}
	type action struct {
		task  string
		juror string // "" = expire the task
	}
	var acts []action
	for _, t := range s.tasksSorted() {
		v := t.snap.Load()
		if v == nil || v.Status.closed() {
			continue
		}
		if !now.Before(t.expiresAt) {
			acts = append(acts, action{task: t.id})
			continue
		}
		for _, j := range v.Jurors {
			if j.State == JurorInvited && !now.Before(j.InvitedAt.Add(t.spec.JurorTimeout)) {
				acts = append(acts, action{task: t.id, juror: j.ID})
			}
		}
	}
	var lastCommit commit
	for _, a := range acts {
		sh := s.shardFor(a.task)
		sh.lockContended()
		t := sh.get(a.task)
		if t == nil || t.status.closed() {
			sh.mu.Unlock()
			continue // closed since the scan (a vote, or an earlier action)
		}
		if a.juror == "" {
			c, jerr := s.journal(&record{Type: recExpire, At: now, Task: a.task})
			if jerr != nil {
				sh.mu.Unlock()
				return released, expired, jerr
			}
			lastCommit = c
			s.applyExpire(t, now)
			publish(t)
			expired++
		} else {
			if _, cerr := checkVote(t, a.juror); cerr != nil {
				sh.mu.Unlock()
				continue // voted or released since the scan (replacement chains)
			}
			c, jerr := s.journal(&record{Type: recDecline, At: now, Task: a.task, Juror: a.juror, Timeout: true})
			if jerr != nil {
				sh.mu.Unlock()
				return released, expired, jerr
			}
			lastCommit = c
			s.applyDecline(t, a.juror, true, now)
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
// timeout+grace). The scan is lock-free: published view snapshots plus
// the immutable spec.
func (s *Store) StalledInvites(now time.Time, grace time.Duration) (tasks int, oldest time.Duration) {
	if grace < 0 {
		grace = 0
	}
	for i := range s.shards {
		s.shards[i].forEach(func(t *task) {
			v := t.snap.Load()
			if v == nil || v.Status.closed() {
				return
			}
			stalled := false
			for _, j := range v.Jurors {
				if j.State != JurorInvited {
					continue
				}
				overdue := now.Sub(j.InvitedAt.Add(t.spec.JurorTimeout + grace))
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
		})
	}
	return tasks, oldest
}

// applyExpire closes the task without a verdict. Callers hold the shard
// mutex.
func (s *Store) applyExpire(t *task, at time.Time) {
	if t.status.closed() {
		return
	}
	s.setStatus(t, StatusExpired)
	s.emitClosed(t, at)
}

// setStatus transitions a task and maintains the gauges. Callers hold
// the shard mutex.
func (s *Store) setStatus(t *task, next Status) {
	switch t.status {
	case StatusOpen:
		s.nOpen.Add(-1)
	case StatusAwaitingVotes:
		s.nAwaiting.Add(-1)
	case StatusDecided:
		s.nDecided.Add(-1)
	case StatusExpired:
		s.nExpired.Add(-1)
	}
	t.status = next
	switch next {
	case StatusOpen:
		s.nOpen.Add(1)
	case StatusAwaitingVotes:
		s.nAwaiting.Add(1)
	case StatusDecided:
		s.nDecided.Add(1)
	case StatusExpired:
		s.nExpired.Add(1)
	}
}

// applyRecord replays one journaled mutation. Records passed validation
// before being journaled, so failures indicate a corrupted or
// out-of-order log and abort recovery. Replay is single-threaded: no
// locks are taken.
func (s *Store) applyRecord(rec *record) error {
	switch rec.Type {
	case recPoolPut:
		jurors := make([]jury.Juror, len(rec.Jurors))
		for i, js := range rec.Jurors {
			jurors[i] = jury.Juror{ID: js.ID, ErrorRate: js.ErrorRate, Cost: js.Cost}
		}
		_, err := s.pools.PutAt(rec.Pool, jurors, rec.At)
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
		var candidates []jury.Juror
		if p, ok := s.pools.Get(rec.Spec.Pool); ok {
			candidates = p.Sorted()
		}
		s.applyCreate(s.shardFor(taskID(rec.Seq)), rec, candidates)
		return nil
	case recVote:
		t := s.lookup(rec.Task)
		if t == nil {
			return fmt.Errorf("%w: %q", ErrTaskNotFound, rec.Task)
		}
		if rec.Vote == nil {
			return errors.New("tasks: vote record missing vote")
		}
		if _, err := checkVote(t, rec.Juror); err != nil {
			return err
		}
		s.applyVote(t, rec.Juror, *rec.Vote, rec.At)
		return nil
	case recDecline:
		t := s.lookup(rec.Task)
		if t == nil {
			return fmt.Errorf("%w: %q", ErrTaskNotFound, rec.Task)
		}
		if _, err := checkVote(t, rec.Juror); err != nil {
			return err
		}
		s.applyDecline(t, rec.Juror, rec.Timeout, rec.At)
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
