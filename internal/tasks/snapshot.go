package tasks

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"juryselect/internal/estimate"
	"juryselect/internal/pool"
	"juryselect/jury"
)

// Compaction snapshot (snapshot.bin): a stream of frames in the WAL's
// framing (len:u32le crc:u32le payload, CRC-32C), each payload one
// section in the v2 record encoding (record.go), in this order:
//
//	header  := 0x11 schema:string epoch:uvarint nextTask:uvarint
//	           n:uvarint (name:string version:uvarint)…   version floors
//	pool    := 0x12 name:string version:uvarint updatedAt:time
//	           n:uvarint (id:string rate:f64 cost:f64 wrong:varint total:varint)…
//	view    := 0x13 pool:string version:uvarint n:uvarint (id:string rate:f64 cost:f64)…
//	task    := 0x14 id:string spec status:u8 poolVersion:uvarint predictedJER:f64
//	           createdAt:time expiresAt:time n:uvarint juror… declines:varint
//	           logOdds:f64 votes:varint
//	           (0 | 1 answer:bool confidence:f64 earlyStopped:bool decidedAt:time)
//	           (0 | 1 pool:string version:uvarint)          pinned view
//	juror   := id:string rate:f64 cost:f64 state:u8 vote:u8 invitedAt:time
//	trailer := 0x1F pools:uvarint views:uvarint tasks:uvarint
//
// Pools come in name order, tasks in sequence order. A view section
// holds a candidate view an open task pins whose pool has since moved
// to a newer version (or been deleted), once per (pool, version); a
// task pinned to its pool's live version reads the view from the pool
// section. A juror's vote code is 0 (none), 1 (no) or 2 (yes).
const (
	secHeader  byte = 0x11
	secPool    byte = 0x12
	secView    byte = 0x13
	secTask    byte = 0x14
	secTrailer byte = 0x1F
)

// snapshotSchema identifies the compaction snapshot format.
const snapshotSchema = "juryselect-taskwal/v2"

// snapshotFileName is the compaction snapshot inside the WAL directory;
// v1SnapshotFileName is the JSON snapshot earlier versions wrote.
const (
	snapshotFileName   = "snapshot.bin"
	v1SnapshotFileName = "snapshot.json"
)

// ErrV1Snapshot reports a v1 JSON compaction snapshot in the WAL
// directory. Open refuses it, naming the file, before it loads, replays
// or removes anything: otherwise it would find no snapshot.bin, start at
// epoch 0 and delete the live epoch's log as stale.
var ErrV1Snapshot = errors.New("tasks: v1 JSON compaction snapshot, which this version does not load")

// code returns v's index in codes; a value outside codes gets one the
// loader rejects.
func code[T comparable](codes []T, v T) byte {
	for i, c := range codes {
		if c == v {
			return byte(i)
		}
	}
	return 0xFF
}

// Smallest encodings of a snapshot's repeated elements, which bound what
// a count may claim: a version floor (empty name, one-byte varint) and
// a task juror (a jury juror, two code bytes, a three-byte time).
const (
	minFloorLen     = 2
	minTaskJurorLen = minJurorLen + 2 + 3
)

// viewKey names a candidate view: the ε-sorted jurors of one pool
// version. Versions never repeat under a name, not even across delete
// and re-create, so the key names one view for the store's lifetime.
type viewKey struct {
	pool    string
	version uint64
}

// snapHeader is the header section.
type snapHeader struct {
	schema   string
	epoch    uint64
	nextTask uint64
	floors   map[string]uint64
}

// snapCounts is the trailer: the number of sections of each kind.
type snapCounts struct{ pools, views, tasks uint64 }

// snapFrame is one decoded section; kind selects the fields set.
type snapFrame struct {
	kind   byte
	header snapHeader   // secHeader
	pool   *pool.Pool   // secPool
	view   viewKey      // secView
	jurors []jury.Juror // secView
	task   *task        // secTask: its invitees index its own juror list
	pinned *viewKey     // secTask: the view the task pins, if any
	counts snapCounts   // secTrailer
}

func appendHeaderSection(b []byte, h *snapHeader) []byte {
	b = append(b, secHeader)
	b = appendStr(b, h.schema)
	b = binary.AppendUvarint(b, h.epoch)
	b = binary.AppendUvarint(b, h.nextTask)
	names := make([]string, 0, len(h.floors))
	for name := range h.floors {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendStr(b, name)
		b = binary.AppendUvarint(b, h.floors[name])
	}
	return b
}

// appendPoolSection encodes p's members in insertion order, walking
// the pool's order in place.
func appendPoolSection(b []byte, p *pool.Pool) []byte {
	b = append(b, secPool)
	b = appendStr(b, p.Name)
	b = binary.AppendUvarint(b, p.Version)
	b = appendTime(b, p.UpdatedAt)
	b = binary.AppendUvarint(b, uint64(p.Size()))
	for i := range p.Size() {
		m := p.Member(i)
		b = appendStr(b, m.ID)
		b = appendF64(b, m.ErrorRate)
		b = appendF64(b, m.Cost)
		b = binary.AppendVarint(b, m.WrongVotes)
		b = binary.AppendVarint(b, m.TotalVotes)
	}
	return b
}

func appendViewSection(b []byte, key viewKey, jurors []jury.Juror) []byte {
	b = append(b, secView)
	b = appendStr(b, key.pool)
	b = binary.AppendUvarint(b, key.version)
	b = binary.AppendUvarint(b, uint64(len(jurors)))
	for _, j := range jurors {
		b = appendStr(b, j.ID)
		b = appendF64(b, j.ErrorRate)
		b = appendF64(b, j.Cost)
	}
	return b
}

// appendTaskSection encodes t as its current state holds it; pinned,
// when non-nil, is the candidate view the task still draws replacements
// from.
func appendTaskSection(b []byte, t *task, pinned *viewKey) []byte {
	st := t.cur
	b = append(b, secTask)
	b = appendStr(b, t.id)
	b = appendSpec(b, &t.spec)
	b = append(b, code(statusCodes[:], st.status))
	b = binary.AppendUvarint(b, t.poolVersion)
	b = appendF64(b, t.predictedJER)
	b = appendTime(b, t.createdAt)
	b = appendTime(b, t.expiresAt)
	b = binary.AppendUvarint(b, uint64(len(st.jurors)))
	for _, e := range st.jurors {
		j := t.juror(e)
		b = appendStr(b, j.ID)
		b = appendF64(b, j.ErrorRate)
		b = appendF64(b, j.Cost)
		b = append(b, e.state, e.vote)
		b = appendTime(b, t.invitedAt(st, e))
	}
	b = binary.AppendVarint(b, int64(st.declines))
	b = appendF64(b, st.post.LogOdds())
	b = binary.AppendVarint(b, int64(st.post.Votes()))
	if v := st.verdict; v != nil {
		b = append(b, 1)
		b = appendBool(b, v.Answer)
		b = appendF64(b, v.Confidence)
		b = appendBool(b, v.EarlyStopped)
		b = appendTime(b, v.DecidedAt)
	} else {
		b = append(b, 0)
	}
	if pinned == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendStr(b, pinned.pool)
	return binary.AppendUvarint(b, pinned.version)
}

func appendTrailerSection(b []byte, c snapCounts) []byte {
	b = append(b, secTrailer)
	b = binary.AppendUvarint(b, c.pools)
	b = binary.AppendUvarint(b, c.views)
	return binary.AppendUvarint(b, c.tasks)
}

// decodeSnapshotFrame decodes one snapshot section payload. Decoded
// values never alias payload, so the caller may reuse its buffer.
func decodeSnapshotFrame(payload []byte, tab *internTable) (snapFrame, error) {
	if len(payload) == 0 {
		return snapFrame{}, errors.New("tasks: empty snapshot section")
	}
	r := recReader{buf: payload, pos: 1, tab: tab}
	f := snapFrame{kind: payload[0]}
	switch f.kind {
	case secHeader:
		h := &f.header
		h.schema = r.str()
		h.epoch = r.uvarint()
		h.nextTask = r.uvarint()
		n := r.count(minFloorLen)
		h.floors = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			name := r.str()
			h.floors[name] = r.uvarint()
		}
	case secPool:
		name, version, updatedAt := r.str(), r.uvarint(), r.time()
		jurors := make([]jury.Juror, r.count(minMemberLen))
		votes := make([]pool.VoteObservation, len(jurors))
		for i := range jurors {
			jurors[i] = jury.Juror{ID: r.str(), ErrorRate: r.f64(), Cost: r.f64()}
			votes[i] = pool.VoteObservation{Wrong: r.varint(), Total: r.varint()}
		}
		if r.err == nil {
			// A section that decodes is rebuilt and checked as the write
			// path checks a pool: a repeated ID, an empty set or an
			// invalid juror fails the snapshot.
			p, err := pool.Rebuild(name, version, updatedAt, jurors, votes)
			if err != nil {
				return f, err
			}
			f.pool = p
		}
	case secView:
		f.view = viewKey{pool: r.str(), version: r.uvarint()}
		f.jurors = make([]jury.Juror, r.count(minJurorLen))
		for i := range f.jurors {
			f.jurors[i] = jury.Juror{ID: r.str(), ErrorRate: r.f64(), Cost: r.f64()}
		}
	case secTask:
		f.task = r.task()
		if r.enum(2) == 1 {
			f.pinned = &viewKey{pool: r.str(), version: r.uvarint()}
		}
	case secTrailer:
		f.counts = snapCounts{pools: r.uvarint(), views: r.uvarint(), tasks: r.uvarint()}
	default:
		return f, fmt.Errorf("tasks: unknown snapshot section tag 0x%02x", f.kind)
	}
	if r.err != nil {
		return f, r.err
	}
	if r.pos != len(payload) {
		return f, fmt.Errorf("tasks: %d trailing bytes in snapshot section 0x%02x", len(payload)-r.pos, f.kind)
	}
	return f, nil
}

// task reads a task section's body up to its pinned view. The task
// pins no view yet, so invitee i indexes juror i of its own list.
func (r *recReader) task() *task {
	t := &task{id: r.str(), spec: r.spec()}
	st := &taskState{status: statusCodes[r.enum(len(statusCodes))]}
	t.cur = st
	t.poolVersion = r.uvarint()
	t.predictedJER = r.f64()
	t.createdAt = r.time()
	t.expiresAt = r.time()
	n := r.count(minTaskJurorLen)
	t.extra = make([]jury.Juror, n)
	st.jurors = make([]invitee, n)
	for i := range st.jurors {
		t.extra[i] = jury.Juror{ID: r.str(), ErrorRate: r.f64(), Cost: r.f64()}
		state, vote := r.enum(len(jurorStateCodes)), r.enum(3)
		st.jurors[i] = t.invite(st, uint32(i), r.time())
		st.jurors[i].state, st.jurors[i].vote = uint8(state), uint8(vote)
	}
	st.declines = int(r.varint())
	logOdds := r.f64()
	st.post = estimate.RestoreVerdictPosterior(logOdds, int(r.varint()))
	if r.enum(2) == 1 {
		st.verdict = &Verdict{Answer: r.bool(), Confidence: r.f64(),
			EarlyStopped: r.bool(), DecidedAt: r.time()}
	}
	return t
}

// loadSnapshot restores snapshot.bin, if present, decoding it frame by
// frame. Called by Open before WAL replay. A bad frame is damage, not a
// torn tail: the snapshot was renamed into place only after its fsync.
// It fails the load, as a section out of order or a missing trailer
// does; the pool store is replaced only once the trailer has checked
// out.
func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.dir, snapshotFileName)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fr := &frameReader{r: bufio.NewReaderSize(f, 1<<16), remaining: info.Size()}
	if err := s.restore(fr); err != nil {
		return fmt.Errorf("tasks: loading snapshot %s: %w", path, err)
	}
	s.recovery.SnapshotLoaded = true
	return nil
}

// restore decodes every section from fr into the store.
func (s *Store) restore(fr *frameReader) error {
	var (
		hdr    snapHeader
		last   byte
		seen   snapCounts
		pools  []*pool.Pool
		byName = make(map[string]*pool.Pool)
		views  = make(map[viewKey][]jury.Juror)
		tab    = newInternTable()
	)
	for {
		payload, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		f, err := decodeSnapshotFrame(payload, tab)
		if err != nil {
			return err
		}
		if (last == 0) != (f.kind == secHeader) || f.kind < last || last == secTrailer {
			return fmt.Errorf("section 0x%02x out of order after 0x%02x", f.kind, last)
		}
		last = f.kind
		switch f.kind {
		case secHeader:
			if f.header.schema != snapshotSchema {
				return fmt.Errorf("schema %q, want %q", f.header.schema, snapshotSchema)
			}
			hdr = f.header
		case secPool:
			p := f.pool
			if len(pools) > 0 && p.Name <= pools[len(pools)-1].Name {
				return fmt.Errorf("pool %q out of name order", p.Name)
			}
			pools = append(pools, p)
			byName[p.Name] = p
			seen.pools++
		case secView:
			if _, dup := views[f.view]; dup {
				return fmt.Errorf("view %s v%d written twice", f.view.pool, f.view.version)
			}
			views[f.view] = f.jurors
			seen.views++
		case secTask:
			t := f.task
			seq, ok := parseTaskID(t.id)
			switch {
			case !ok:
				return fmt.Errorf("task ID %q is not one the store renders", t.id)
			case seq >= hdr.nextTask:
				return fmt.Errorf("task %s at or past the header's next number %d", t.id, hdr.nextTask)
			case seen.tasks == 0: // the table starts at the first task
				s.tasks.startAt(seq)
				s.nextTask.Store(seq)
			case seq < s.nextTask.Load():
				return fmt.Errorf("task %s out of sequence order", t.id)
			}
			if err := s.checkRecovered(seq); err != nil {
				return fmt.Errorf("task %s: %w", t.id, err)
			}
			t.seq = seq
			if key := f.pinned; key != nil {
				// Tasks pinning one view share one slice, as live tasks
				// share their pool's.
				cands := views[*key]
				if p := byName[key.pool]; p != nil && p.Version == key.version {
					cands = p.Sorted()
				} else if cands == nil {
					return fmt.Errorf("task %s pins view %s v%d, which the snapshot lacks", t.id, key.pool, key.version)
				}
				t.pin(cands)
			}
			s.insertRestored(t)
			seen.tasks++
		case secTrailer:
			if f.counts != seen {
				return fmt.Errorf("trailer counts %+v, read %+v", f.counts, seen)
			}
		}
	}
	if last != secTrailer {
		return errors.New("no trailer: the snapshot is cut short")
	}
	if err := s.checkRecovered(hdr.nextTask); err != nil {
		return fmt.Errorf("header's next task number: %w", err)
	}
	s.pools.Install(pools, hdr.floors)
	s.nextTask.Store(hdr.nextTask)
	s.epoch = hdr.epoch
	return nil
}

// insertRestored places a snapshot task, the highest so far, and counts
// it in the gauges. No events: compaction folded the history they describe.
func (s *Store) insertRestored(t *task) {
	s.tasks.place(t)
	s.nextTask.Store(t.seq + 1)
	s.nTasks.Add(1)
	s.gauge(t.cur.status).Add(1)
}

// snapshotWriter frames sections into w, building each payload in one
// reused buffer: buf always has length zero between sections.
type snapshotWriter struct {
	w   *bufio.Writer
	hdr [walFrameOverhead]byte
	buf []byte
}

// put frames payload, which extends sw.buf, and keeps its storage.
func (sw *snapshotWriter) put(payload []byte) error {
	sw.buf = payload[:0]
	if len(payload) > maxRecordLen {
		return fmt.Errorf("%w: snapshot section of %d bytes", ErrRecordTooLarge, len(payload))
	}
	return writeFrame(sw.w, &sw.hdr, payload)
}

// encodeSnapshot streams the store state into w as the sections above,
// reading pools and tasks in place. Callers hold every store lock.
func (s *Store) encodeSnapshot(w *bufio.Writer, epoch uint64) error {
	sw := &snapshotWriter{w: w}
	var counts snapCounts
	hdr := snapHeader{schema: snapshotSchema, epoch: epoch,
		nextTask: s.nextTask.Load(), floors: s.pools.VersionFloors()}
	if err := sw.put(appendHeaderSection(sw.buf, &hdr)); err != nil {
		return err
	}
	for _, p := range s.pools.List() {
		if err := sw.put(appendPoolSection(sw.buf, p)); err != nil {
			return err
		}
		counts.pools++
	}
	written := make(map[viewKey]bool)
	if err := s.tasks.each(func(t *task) error {
		key, ok := s.pinnedView(t)
		if !ok || written[key] {
			return nil
		}
		if p, live := s.pools.Get(key.pool); live && p.Version == key.version {
			return nil // the pool section carries it
		}
		written[key] = true
		counts.views++
		return sw.put(appendViewSection(sw.buf, key, t.candidates))
	}); err != nil {
		return err
	}
	if err := s.tasks.each(func(t *task) error {
		var pinned *viewKey
		if key, ok := s.pinnedView(t); ok {
			pinned = &key
		}
		counts.tasks++
		return sw.put(appendTaskSection(sw.buf, t, pinned))
	}); err != nil {
		return err
	}
	return sw.put(appendTrailerSection(sw.buf, counts))
}

// pinnedView reports the candidate view an open task draws replacements
// from: its pool at the version it was created against. Closed tasks
// invite no one, so the snapshot drops their view.
func (s *Store) pinnedView(t *task) (viewKey, bool) {
	if t.cur.status.closed() || len(t.candidates) == 0 {
		return viewKey{}, false
	}
	return viewKey{pool: t.spec.Pool, version: t.poolVersion}, true
}

// Compact folds the entire store state into a fresh snapshot and starts
// a new, empty WAL epoch, bounding both recovery time and disk usage.
// Safe to call at any time; mutations wait while it runs (it takes
// every store lock — rare and bounded, so stopping the world is
// cheaper than making the hot path compaction-aware). Crash-safe at
// every step: the snapshot is streamed to a temp file and renamed into
// place before the old epoch's log is deleted, and recovery ignores log
// epochs other than the snapshot's. A failed store (a journal write
// failed after its state applied) is not compacted: its memory may hold
// state the log never did.
func (s *Store) Compact() error {
	s.compactGate.Lock()
	defer s.compactGate.Unlock()
	s.lockAll()
	defer s.unlockAll()
	return s.compactLocked()
}

// compactLocked is Compact with every store lock held. Its wall time,
// which is how long writers stall, feeds the compaction histogram.
func (s *Store) compactLocked() error {
	wal := s.wal.Load()
	if wal == nil {
		return nil
	}
	if s.failed.Load() {
		return ErrStoreFailed
	}
	start := time.Now()
	defer func() { s.compactLat.Observe(time.Since(start).Nanoseconds()) }()
	epoch := s.epoch + 1

	// Open the new epoch's log BEFORE renaming the snapshot into place.
	// Once a snapshot naming epoch N+1 is visible, recovery reads only
	// wal-(N+1) — so the cutover to that log must be infallible from
	// that moment on. Opening first keeps the failure cases safe: an
	// open error leaves the old (snapshot, full log) pair untouched,
	// and after a successful rename only in-memory pointer swaps remain.
	// A crashed earlier compaction may have left records in this
	// epoch's file, which an older snapshot covers: remove it first. The
	// rename's directory fsync makes the removal durable before any
	// snapshot names the epoch.
	path := walFile(s.dir, epoch)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("tasks: removing stale wal epoch %d: %w", epoch, err)
	}
	next, err := OpenWAL(path, WALOptions{Sync: wal.mode, FsyncObserver: wal.fsyncObs}, nil)
	if err != nil {
		return fmt.Errorf("tasks: opening wal epoch %d: %w", epoch, err)
	}
	renamed, err := s.writeSnapshot(filepath.Join(s.dir, snapshotFileName), epoch)
	if err != nil {
		next.Close() //nolint:errcheck
		if renamed {
			// The epoch-(N+1) snapshot may already be visible while the
			// store would keep journaling to epoch N, whose records a
			// restart would ignore. Refusing further mutations is the
			// only honest state; a restart recovers from the snapshot.
			s.failed.Store(true)
			return fmt.Errorf("tasks: snapshot rename finished but could not be confirmed durable: %w", err)
		}
		os.Remove(path) //nolint:errcheck // stale empty epoch
		return fmt.Errorf("tasks: writing snapshot: %w", err)
	}

	oldPath := walFile(s.dir, s.epoch)
	s.wal.Store(next)
	s.epoch = epoch
	s.sinceCompact.Store(0)
	s.compactions.Add(1)
	wal.Close()        //nolint:errcheck // superseded by the snapshot
	os.Remove(oldPath) //nolint:errcheck // best-effort; stale files are ignored
	return nil
}

// writeSnapshot streams the snapshot naming epoch through one
// bufio.Writer into a temp file beside path, fsyncs it, renames it over
// path and fsyncs the directory. renamed reports whether the rename was
// attempted — on a true return with a non-nil error the file at path
// may or may not be the new snapshot, and the caller must treat the
// swap as having happened.
func (s *Store) writeSnapshot(path string, epoch uint64) (renamed bool, err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return false, err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after the rename
	w := bufio.NewWriterSize(f, 1<<16)
	if err := s.encodeSnapshot(w, epoch); err != nil {
		f.Close()
		return false, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return false, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return false, err
	}
	if err := f.Close(); err != nil {
		return false, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return true, err
	}
	d, err := os.Open(dir)
	if err != nil {
		return true, err
	}
	defer d.Close()
	return true, d.Sync()
}
