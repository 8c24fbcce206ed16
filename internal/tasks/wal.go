// Package tasks is the durable decision-task lifecycle subsystem behind
// juryd: the paper's object of study — a question posed to a selected
// jury whose votes yield a verdict — as a stateful, crash-safe service
// component.
//
// A task is created with a question, a selection strategy and budget,
// and a target confidence. The store selects a jury from the live pool
// snapshot (recording the pool version), collects votes as they arrive,
// and folds each one into an exact posterior over the answer
// (estimate.VerdictPosterior). Two mechanisms take the paper's
// pay-as-you-go framing online:
//
//   - Sequential early stop: the task closes and emits a verdict the
//     moment posterior confidence crosses the target, spending fewer
//     votes than the fixed jury would.
//   - Juror timeout/replacement: a selected juror who never answers
//     (the common case on real micro-blog services, cf. Mahmud et al.,
//     arXiv:1404.2013) is released and the next-best candidate under
//     the remaining budget is invited.
//
// Durability: every task and pool mutation is journaled to an
// append-only write-ahead log with CRC-framed records and group-commit
// fsync batching before it is applied, and the full state is
// periodically folded into a snapshot so the log stays short
// (Compact). A restarted process replays snapshot + log to the exact
// pre-crash state; a torn tail (partial final record from a crash
// mid-write) is detected by the CRC frame and truncated.
package tasks

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/obs"
)

// SyncMode selects the WAL's durability discipline.
type SyncMode string

const (
	// SyncBatch (the default) fsyncs before an append is acknowledged:
	// an acknowledged write survives any crash, process or machine.
	// Appends group-commit — every writer that buffered a record before
	// a given fsync is acknowledged by it, so concurrent writers share
	// one fsync.
	SyncBatch SyncMode = "batch"
	// SyncOff never fsyncs (the OS flushes when it pleases). For tests,
	// benchmarks and ephemeral stores.
	SyncOff SyncMode = "off"
)

// maxRecordLen bounds a single WAL record; a frame declaring more is
// treated as a torn/corrupt tail. Generous: the largest legitimate
// record is a full-pool put.
const maxRecordLen = 64 << 20

// walFrameOverhead is the per-record framing cost: u32 payload length +
// u32 CRC-32C of the payload, both little-endian.
const walFrameOverhead = 8

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWALClosed reports an append on a closed WAL.
var ErrWALClosed = errors.New("tasks: wal closed")

// ErrRecordTooLarge reports an append whose payload exceeds the frame
// bound. Rejecting it at write time matters: a larger record would be
// written (and acknowledged) successfully but rejected as a torn tail
// on replay, silently truncating it and everything after it.
var ErrRecordTooLarge = errors.New("tasks: wal record exceeds frame bound")

// WALOptions configures OpenWAL. The zero value selects SyncBatch.
type WALOptions struct {
	Sync SyncMode
	// FsyncObserver, when set, is called with every fsync's latency in
	// nanoseconds, from the committer goroutine outside the WAL lock. It
	// feeds the SLO engine's wal_fsync objective; implementations must be
	// cheap and must not call back into the WAL.
	FsyncObserver func(latencyNS int64)
}

// walBatchBuckets is the fsync batch-size histogram shape: bucket i
// counts fsyncs that acknowledged ≤ 2^i records (the last is open).
const walBatchBuckets = 8

// WALStats is a snapshot of the log's counters.
type WALStats struct {
	// Appends counts records appended since open (excluding replay).
	Appends int64
	// Fsyncs counts fsync calls issued.
	Fsyncs int64
	// FsyncP99NS is the 99th-percentile fsync latency since open, in
	// nanoseconds (0 until the first fsync). Derived from FsyncHist.
	FsyncP99NS int64
	// FsyncHist is the full fsync-latency histogram since open.
	FsyncHist obs.HistSnapshot
	// DurableWaitHist is the append→durable wait distribution: what a
	// writer actually pays in WaitDurable, fast (already-synced) paths
	// included. Empty under SyncOff, which has no durability wait.
	DurableWaitHist obs.HistSnapshot
	// QueueDepth is the number of appended records not yet durable —
	// the committer's backlog at the instant of the snapshot.
	QueueDepth int64
	// FsyncBatchSizes is a histogram of records acknowledged per fsync:
	// bucket i counts fsyncs whose batch was ≤ 2^i records (1, 2, 4, …,
	// 64), with the final bucket open-ended. A healthy pipelined
	// committer under load fills the higher buckets.
	FsyncBatchSizes [walBatchBuckets]int64
	// ReplayRecords is the number of intact records replayed at open.
	ReplayRecords int64
	// TornBytes is the size of the torn tail truncated at open (0 for a
	// clean log).
	TornBytes int64
}

// WAL is a CRC-framed append-only log with group-commit fsync batching.
// Append is safe for concurrent use; records are durable per the
// configured SyncMode when Append returns. The frame layout is
//
//	record  := len:u32le  crc:u32le  payload:[len]byte
//	crc      = CRC-32C(payload)
//
// A reader accepts the longest prefix of intact frames and truncates
// the rest: a crash mid-write loses at most the unacknowledged tail.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	hdr     [walFrameOverhead]byte
	written uint64 // records buffered (monotonic)
	synced  uint64 // records durable
	err     error  // sticky write/sync error
	closed  bool
	durable *sync.Cond // broadcast when synced advances

	mode     SyncMode
	syncReq  chan struct{}
	done     chan struct{}
	loopDone chan struct{}

	appends   atomic.Int64
	fsyncs    atomic.Int64
	batchHist [walBatchBuckets]atomic.Int64
	replayed  int64
	torn      int64

	fsyncLat obs.Histogram // fsync call latency
	waitLat  obs.Histogram // append→durable wait as seen by writers
	fsyncObs func(latencyNS int64)
}

// walRecord is one intact record yielded by readWAL.
type walRecord struct {
	payload []byte
}

// readWAL reads every intact frame of the file at path and returns the
// records plus the byte offset where intact data ends (the truncation
// point for a torn tail). A missing file yields zero records.
func readWAL(path string) (records []walRecord, validLen int64, err error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	off := int64(0)
	for {
		rest := raw[off:]
		if len(rest) < walFrameOverhead {
			break // short header: torn tail
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n > maxRecordLen || int64(len(rest))-walFrameOverhead < n {
			break // impossible length or short payload: torn tail
		}
		payload := rest[walFrameOverhead : walFrameOverhead+n]
		if crc32.Checksum(payload, crcTable) != crc {
			break // corrupt payload: treat as torn
		}
		records = append(records, walRecord{payload: payload})
		off += walFrameOverhead + n
	}
	return records, off, nil
}

// OpenWAL opens (creating if absent) the log at path, truncates any torn
// tail, and positions for appending. The returned records are the intact
// prefix, for the caller to replay.
func OpenWAL(path string, opts WALOptions) (*WAL, []walRecord, error) {
	records, validLen, err := readWAL(path)
	if err != nil {
		return nil, nil, fmt.Errorf("tasks: reading wal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	torn := info.Size() - validLen
	if torn > 0 {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("tasks: truncating torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{
		f:        f,
		w:        bufio.NewWriterSize(f, 1<<16),
		mode:     opts.Sync,
		syncReq:  make(chan struct{}, 1),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
		replayed: int64(len(records)),
		torn:     torn,
		fsyncObs: opts.FsyncObserver,
	}
	if w.mode == "" {
		w.mode = SyncBatch
	}
	w.durable = sync.NewCond(&w.mu)
	go w.syncLoop()
	return w, records, nil
}

// Append writes one record and, per the sync mode, waits for it to be
// durable. Safe for concurrent use; the durability wait group-commits:
// every append buffered before a given fsync is acknowledged by it.
func (w *WAL) Append(payload []byte) error {
	seq, err := w.AppendAsync(payload)
	if err != nil {
		return err
	}
	return w.WaitDurable(seq)
}

// AppendAsync buffers one record and returns its sequence number without
// waiting for durability. Callers that must order the append against
// their own state mutation (the task store journals under its mutex)
// buffer here and call WaitDurable after releasing their lock, so
// concurrent writers share one fsync.
func (w *WAL) AppendAsync(payload []byte) (seq uint64, err error) {
	if int64(len(payload)) > maxRecordLen {
		return 0, fmt.Errorf("%w: %d bytes > %d", ErrRecordTooLarge, len(payload), int64(maxRecordLen))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	binary.LittleEndian.PutUint32(w.hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		w.err = err
		return 0, err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
		return 0, err
	}
	w.written++
	w.appends.Add(1)

	if w.mode == SyncOff {
		// Flush to the kernel so readers of the file (and a process
		// crash) see the record; no fsync.
		if err := w.w.Flush(); err != nil {
			w.err = err
			return 0, err
		}
		w.synced = w.written
		return w.written, nil
	}
	// Wake the committer: the pipeline starts the next fsync as soon as
	// the previous one completes.
	select {
	case w.syncReq <- struct{}{}:
	default:
	}
	return w.written, nil
}

// WaitDurable blocks until the record with the given sequence number is
// durable per the sync mode (a no-op for SyncOff). The wait is recorded
// in the durable-wait histogram — zero for the already-synced fast path,
// clock-timed when the caller actually parks.
func (w *WAL) WaitDurable(seq uint64) error {
	w.mu.Lock()
	var waited int64 // 0 for the already-synced fast path
	if w.synced < seq && w.err == nil && !w.closed {
		start := time.Now()
		for w.synced < seq && w.err == nil && !w.closed {
			w.durable.Wait()
		}
		waited = time.Since(start).Nanoseconds()
	}
	err := w.err
	synced := w.synced
	w.mu.Unlock()
	if w.mode != SyncOff {
		w.waitLat.Observe(waited)
	}
	if err != nil {
		return err
	}
	if synced < seq {
		return ErrWALClosed
	}
	return nil
}

// syncLoop is the single fsync issuer, a two-phase pipeline: whenever
// records are pending it flushes and fsyncs back-to-back, so batch N+1
// accumulates in the buffer while batch N is inside fsync and a
// durability wait costs at most one fsync latency.
func (w *WAL) syncLoop() {
	defer close(w.loopDone)
	for {
		if w.pending() {
			// Yield before each fsync. A channel send puts this goroutine
			// in the scheduler's runnext slot, so without the yield the
			// pipeline wakes the moment the FIRST appender of a burst
			// lands and fsyncs a batch of one while its siblings are
			// still queued behind it; one Gosched lets every runnable
			// appender reach Append before the batch is cut (~3×
			// measured batch size under an 8-way fan-in on one core),
			// at a cost that is noise against the fsync itself.
			runtime.Gosched()
			w.syncOnce()
			continue
		}
		select {
		case <-w.done:
			return
		case <-w.syncReq:
			runtime.Gosched() // same batch-formation yield as above
			w.syncOnce()
		}
	}
}

// pending reports whether un-synced records are waiting on the
// committer. Sticky errors and closure read as "nothing pending" so the
// pipeline parks instead of spinning.
func (w *WAL) pending() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err == nil && !w.closed && w.written > w.synced
}

// syncOnce flushes and fsyncs, advancing the durability watermark.
func (w *WAL) syncOnce() {
	w.mu.Lock()
	if w.err != nil || w.synced == w.written {
		w.mu.Unlock()
		return
	}
	target := w.written
	if err := w.w.Flush(); err != nil {
		w.err = err
		w.durable.Broadcast()
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()

	// fsync outside the lock: appenders keep buffering meanwhile. The
	// kernel persists at least everything flushed above.
	start := time.Now()
	err := w.f.Sync()
	elapsed := time.Since(start).Nanoseconds()
	w.fsyncs.Add(1)
	w.fsyncLat.Observe(elapsed)
	if w.fsyncObs != nil {
		w.fsyncObs(elapsed)
	}

	w.mu.Lock()
	if err != nil && w.err == nil {
		w.err = err
	}
	if err == nil && target > w.synced {
		w.recordBatch(target - w.synced)
		w.synced = target
	}
	w.durable.Broadcast()
	w.mu.Unlock()
}

// recordBatch buckets one fsync's batch size into the histogram:
// bucket i counts batches of ≤ 2^i records.
func (w *WAL) recordBatch(n uint64) {
	b := 0
	for b < walBatchBuckets-1 && n > uint64(1)<<b {
		b++
	}
	w.batchHist[b].Add(1)
}

// Reset truncates the log to empty. Called by snapshot compaction after
// the snapshot containing every logged mutation is durable; the caller
// must ensure no concurrent appends.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		w.err = err
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.err = err
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.synced = w.written // nothing outstanding
	return nil
}

// Close flushes, syncs and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	flushErr := w.w.Flush()
	if flushErr != nil && w.err == nil {
		w.err = flushErr
	}
	w.mu.Unlock()

	close(w.done)
	<-w.loopDone

	syncErr := w.f.Sync()
	w.mu.Lock()
	if flushErr == nil && syncErr == nil && w.err == nil {
		// The final flush+sync covered everything buffered: acknowledge
		// any waiter that raced the shutdown.
		w.synced = w.written
	}
	w.durable.Broadcast()
	w.mu.Unlock()
	closeErr := w.f.Close()
	switch {
	case flushErr != nil:
		return flushErr
	case syncErr != nil:
		return syncErr
	default:
		return closeErr
	}
}

// Stats returns a snapshot of the log's counters.
func (w *WAL) Stats() WALStats {
	st := WALStats{
		Appends:       w.appends.Load(),
		Fsyncs:        w.fsyncs.Load(),
		ReplayRecords: w.replayed,
		TornBytes:     w.torn,
	}
	for i := range st.FsyncBatchSizes {
		st.FsyncBatchSizes[i] = w.batchHist[i].Load()
	}
	w.mu.Lock()
	st.QueueDepth = int64(w.written - w.synced)
	w.mu.Unlock()
	st.FsyncHist = w.fsyncLat.Snapshot()
	st.DurableWaitHist = w.waitLat.Snapshot()
	st.FsyncP99NS = st.FsyncHist.Quantile(0.99)
	return st
}
