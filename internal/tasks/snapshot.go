package tasks

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"juryselect/internal/estimate"
	"juryselect/internal/pool"
	"juryselect/jury"
)

// snapshotSchema identifies the compaction snapshot format.
const snapshotSchema = "juryselect-taskwal/v1"

// taskSnap is the snapshot form of one task: everything needed to
// rebuild it bit-identically, including the posterior accumulator state
// (persisted raw rather than re-derived, so juror-order bookkeeping
// cannot perturb the floating-point sum) and, for still-open tasks, the
// candidate view replacements are drawn from.
type taskSnap struct {
	ID           string       `json:"id"`
	Spec         Spec         `json:"spec"`
	Status       Status       `json:"status"`
	PoolVersion  uint64       `json:"pool_version"`
	PredictedJER float64      `json:"predicted_jer"`
	CreatedAt    time.Time    `json:"created_at"`
	ExpiresAt    time.Time    `json:"expires_at"`
	Jurors       []JurorView  `json:"jurors"`
	Declines     int          `json:"declines,omitempty"`
	LogOdds      float64      `json:"log_odds"`
	Votes        int          `json:"votes"`
	Verdict      *VerdictView `json:"verdict,omitempty"`
	Candidates   []recJuror   `json:"candidates,omitempty"`
}

// snapshotFile is the on-disk snapshot: the full store state at a
// compaction point. The WAL epoch it names starts empty; recovery loads
// the snapshot and replays only that epoch's log.
type snapshotFile struct {
	Schema   string     `json:"schema"`
	Epoch    uint64     `json:"epoch"`
	Pools    pool.State `json:"pools"`
	Tasks    []taskSnap `json:"tasks"`
	NextTask uint64     `json:"next_task"`
}

// loadSnapshot restores the snapshot file, if present. Called by Open
// before WAL replay.
func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.dir, snapshotFileName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("tasks: decoding snapshot: %w", err)
	}
	if snap.Schema != snapshotSchema {
		return fmt.Errorf("tasks: snapshot schema %q, want %q", snap.Schema, snapshotSchema)
	}
	if err := s.pools.Restore(snap.Pools); err != nil {
		return err
	}
	for _, ts := range snap.Tasks {
		t := &task{
			id:           ts.ID,
			spec:         ts.Spec,
			status:       ts.Status,
			poolVersion:  ts.PoolVersion,
			predictedJER: ts.PredictedJER,
			createdAt:    ts.CreatedAt,
			expiresAt:    ts.ExpiresAt,
			jurors:       make([]TaskJuror, len(ts.Jurors)),
			index:        make(map[string]int, len(ts.Jurors)),
			post:         estimate.RestoreVerdictPosterior(ts.LogOdds, ts.Votes),
			declines:     ts.Declines,
		}
		for i, jv := range ts.Jurors {
			t.jurors[i] = TaskJuror{ID: jv.ID, ErrorRate: jv.ErrorRate, Cost: jv.Cost,
				State: jv.State, Vote: jv.Vote, InvitedAt: jv.InvitedAt}
			t.index[jv.ID] = i
		}
		if ts.Verdict != nil {
			t.verdict = &Verdict{Answer: ts.Verdict.Answer, Confidence: ts.Verdict.Confidence,
				EarlyStopped: ts.Verdict.EarlyStopped, DecidedAt: ts.Verdict.DecidedAt}
		}
		if len(ts.Candidates) > 0 {
			t.candidates = make([]jury.Juror, len(ts.Candidates))
			for i, c := range ts.Candidates {
				t.candidates[i] = jury.Juror{ID: c.ID, ErrorRate: c.ErrorRate, Cost: c.Cost}
			}
		}
		s.shardFor(t.id).insert(t)
		s.nTasks.Add(1)
		switch t.status {
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
	s.nextTask.Store(snap.NextTask)
	s.epoch = snap.Epoch
	s.recovery.SnapshotLoaded = true
	return nil
}

// Compact folds the entire store state into a fresh snapshot and starts
// a new, empty WAL epoch, bounding both recovery time and disk usage.
// Safe to call at any time; mutations wait while it runs (it takes
// every store lock — rare and bounded, so stopping the world is
// cheaper than making the hot path compaction-aware). Crash-safe at
// every step: the snapshot is written to a temp file and renamed into
// place before the old epoch's log is deleted, and recovery ignores log
// epochs other than the snapshot's.
func (s *Store) Compact() error {
	s.compactGate.Lock()
	defer s.compactGate.Unlock()
	s.lockAll()
	defer s.unlockAll()
	return s.compactLocked()
}

// compactLocked is Compact with every store lock held.
func (s *Store) compactLocked() error {
	wal := s.wal.Load()
	if wal == nil {
		return nil
	}
	tasksSorted := s.tasksSorted()
	snap := snapshotFile{
		Schema:   snapshotSchema,
		Epoch:    s.epoch + 1,
		Pools:    s.pools.Export(),
		NextTask: s.nextTask.Load(),
		Tasks:    make([]taskSnap, 0, len(tasksSorted)),
	}
	for _, t := range tasksSorted {
		ts := taskSnap{
			ID:           t.id,
			Spec:         t.spec,
			Status:       t.status,
			PoolVersion:  t.poolVersion,
			PredictedJER: t.predictedJER,
			CreatedAt:    t.createdAt,
			ExpiresAt:    t.expiresAt,
			Jurors:       make([]JurorView, len(t.jurors)),
			Declines:     t.declines,
			LogOdds:      t.post.LogOdds(),
			Votes:        t.post.Votes(),
		}
		for i, j := range t.jurors {
			ts.Jurors[i] = JurorView{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost,
				State: j.State, Vote: j.Vote, InvitedAt: j.InvitedAt}
		}
		if t.verdict != nil {
			ts.Verdict = &VerdictView{Answer: t.verdict.Answer, Confidence: t.verdict.Confidence,
				EarlyStopped: t.verdict.EarlyStopped, DecidedAt: t.verdict.DecidedAt}
		}
		if !t.status.closed() {
			// Only open tasks can still invite replacements; closed tasks
			// drop the candidate view from the snapshot.
			ts.Candidates = make([]recJuror, len(t.candidates))
			for i, c := range t.candidates {
				ts.Candidates[i] = recJuror{ID: c.ID, ErrorRate: c.ErrorRate, Cost: c.Cost}
			}
		}
		snap.Tasks = append(snap.Tasks, ts)
	}
	raw, err := json.Marshal(&snap)
	if err != nil {
		return err
	}

	// Open the new epoch's log BEFORE renaming the snapshot into place.
	// Once a snapshot naming epoch N+1 is visible, recovery reads only
	// wal-(N+1) — so the cutover to that log must be infallible from
	// that moment on. Opening first keeps the failure cases safe: an
	// open error leaves the old (snapshot, full log) pair untouched,
	// and after a successful rename only in-memory pointer swaps remain.
	next, stale, err := OpenWAL(walFile(s.dir, snap.Epoch), WALOptions{Sync: wal.mode, FsyncObserver: wal.fsyncObs})
	if err != nil {
		return fmt.Errorf("tasks: opening wal epoch %d: %w", snap.Epoch, err)
	}
	if len(stale) > 0 {
		// A crashed previous compaction left records in this epoch's
		// file; they are covered by an older snapshot that has since been
		// replaced, so drop them.
		if err := next.Reset(); err != nil {
			next.Close() //nolint:errcheck
			return err
		}
	}
	path := filepath.Join(s.dir, snapshotFileName)
	renamed, err := writeFileSync(path, raw)
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
		os.Remove(walFile(s.dir, snap.Epoch)) //nolint:errcheck // stale empty epoch
		return fmt.Errorf("tasks: writing snapshot: %w", err)
	}

	oldPath := walFile(s.dir, s.epoch)
	s.wal.Store(next)
	s.epoch = snap.Epoch
	s.sinceCompact.Store(0)
	s.compactions.Add(1)
	wal.Close()        //nolint:errcheck // superseded by the snapshot
	os.Remove(oldPath) //nolint:errcheck // best-effort; stale files are ignored
	return nil
}

// writeFileSync writes data durably: temp file in the same directory,
// fsync, rename over path, fsync the directory. renamed reports whether
// the rename was attempted — on a true return with a non-nil error the
// file at path may or may not be the new content, and the caller must
// treat the swap as having happened.
func writeFileSync(path string, data []byte) (renamed bool, err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return false, err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after the rename
	if _, err := f.Write(data); err != nil {
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
