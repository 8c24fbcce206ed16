package tasks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// appendDurable buffers one record and waits until it is durable, as the
// task store journals each mutation: AppendAsync, then WaitDurable.
func appendDurable(w *WAL, payload []byte) error {
	seq, err := w.AppendAsync(payload)
	if err != nil {
		return err
	}
	return w.WaitDurable(seq)
}

// walRecord is one intact record yielded by readWAL.
type walRecord struct {
	payload []byte
}

// readWAL is the in-memory reader OpenWAL's streaming replay replaced,
// kept as its reference: it reads every intact frame of the file at
// path and returns the records plus the byte offset where intact data
// ends (the truncation point for a torn tail). A missing file yields
// zero records.
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

// openTestWAL opens the log at path and returns the records it replayed.
func openTestWAL(t *testing.T, path string, opts WALOptions) (*WAL, []walRecord) {
	t.Helper()
	var recs []walRecord
	w, err := OpenWAL(path, opts, func(payload []byte) error {
		recs = append(recs, walRecord{payload: bytes.Clone(payload)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf(`{"i":%d,"pad":"%0*d"}`, i, i%37, i))
		want = append(want, p)
		if err := appendDurable(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].payload) != string(want[i]) {
			t.Fatalf("record %d: %q != %q", i, got[i].payload, want[i])
		}
	}
}

// TestWALTornTailTruncated simulates a crash mid-write: a partial final
// frame must be detected and truncated, preserving every intact record.
func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	for i := 0; i < 10; i++ {
		if err := appendDurable(w, []byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Three torn shapes: header cut short, payload cut short, and a
	// full-size frame whose payload bytes were garbled before the fsync.
	full := append([]byte(nil), intact...)
	hdr := make([]byte, walFrameOverhead)
	binary.LittleEndian.PutUint32(hdr, 9)
	for name, tail := range map[string][]byte{
		"short header":  hdr[:3],
		"short payload": append(append([]byte(nil), hdr...), []byte("only4")...),
		"bad crc":       append(append([]byte(nil), hdr...), []byte("garbled!!")...),
	} {
		torn := append(append([]byte(nil), full...), tail...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs := openTestWAL(t, path, WALOptions{Sync: SyncOff})
		if len(recs) != 10 {
			t.Fatalf("%s: replayed %d records, want 10", name, len(recs))
		}
		st := w.Stats()
		if st.TornBytes != int64(len(tail)) {
			t.Errorf("%s: torn bytes %d, want %d", name, st.TornBytes, len(tail))
		}
		// The torn tail must be gone from disk: appending after recovery
		// yields a clean log.
		if err := appendDurable(w, []byte("post-recovery")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs2 := openTestWAL(t, path, WALOptions{Sync: SyncOff})
		if len(recs2) != 11 || string(recs2[10].payload) != "post-recovery" {
			t.Fatalf("%s: post-recovery log replayed %d records", name, len(recs2))
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		// Restore the intact base for the next shape.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALCorruptMiddleStopsReplay verifies that corruption strictly
// inside the log (not just at the tail) cuts replay at the corruption
// point instead of yielding garbage records.
func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	for i := 0; i < 6; i++ {
		if err := appendDurable(w, []byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := walFrameOverhead + len("record-00")
	raw[3*frame+walFrameOverhead] ^= 0xFF // flip a payload byte of record 3
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	if len(recs) != 3 {
		t.Fatalf("replayed %d records past corruption, want 3", len(recs))
	}
}

func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, path, WALOptions{Sync: SyncBatch})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := appendDurable(w, []byte(fmt.Sprintf("g%02d-%02d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends %d, want %d", st.Appends, writers*each)
	}
	if st.Fsyncs == 0 || st.Fsyncs >= st.Appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	if len(recs) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*each)
	}
}

// TestWALSyncBatchIsDurablePerAppend pins the default mode's contract:
// an acknowledged append has already been fsynced, with no timer window
// in which a machine crash could still lose it.
func TestWALSyncBatchIsDurablePerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, path, WALOptions{Sync: SyncBatch})
	for i := 0; i < 5; i++ {
		if err := appendDurable(w, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
		// No Close, no flush: the record must already be on disk, and an
		// fsync that covers it must have completed.
		recs, _, err := readWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != i+1 {
			t.Fatalf("append %d acknowledged with %d records on disk", i, len(recs))
		}
		st := w.Stats()
		if st.QueueDepth != 0 || st.Fsyncs == 0 {
			t.Fatalf("append %d acknowledged before its fsync: %+v", i, st)
		}
	}
	if st := w.Stats(); st.Fsyncs == 0 || st.FsyncP99NS == 0 {
		t.Fatalf("stats = %+v, want fsyncs and latency recorded", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(w, []byte("x")); err != ErrWALClosed {
		t.Fatalf("append after close = %v, want ErrWALClosed", err)
	}
}

// TestWALWaitDurableRacingClose checks that durability waits racing
// Close end with its final flush and sync, not with ErrWALClosed:
// compaction closes a superseded log while writers may still wait on
// records it holds, and those records are durable.
func TestWALWaitDurableRacingClose(t *testing.T) {
	const rounds, n = 50, 32
	for round := 0; round < rounds; round++ {
		w, _ := openTestWAL(t, filepath.Join(t.TempDir(), "wal.log"), WALOptions{Sync: SyncBatch})
		for i := 0; i < n; i++ {
			if _, err := w.AppendAsync([]byte("r")); err != nil {
				t.Fatal(err)
			}
		}
		errs := make(chan error, n)
		for seq := uint64(1); seq <= n; seq++ {
			go func(seq uint64) { errs <- w.WaitDurable(seq) }(seq)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: a wait racing Close = %v, want nil", round, err)
			}
		}
	}
}

// TestWALAppendAllocFree is the alloc guard of the BENCH_PR5 trajectory:
// the append hot path (frame + CRC + buffered write) must not allocate.
func TestWALAppendAllocFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	defer w.Close() //nolint:errcheck
	payload := []byte(`{"t":"vote","task":"t00000001","juror":"j00042","vote":true}`)
	allocs := testing.AllocsPerRun(200, func() {
		if err := appendDurable(w, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("WAL append allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWALRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, path, WALOptions{Sync: SyncOff})
	defer w.Close() //nolint:errcheck
	huge := make([]byte, maxRecordLen+1)
	if _, err := w.AppendAsync(huge); err == nil {
		t.Fatal("oversized record accepted: it would be silently truncated as a torn tail on replay")
	}
	// The log is untouched and still accepts normal records.
	if err := appendDurable(w, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Appends != 1 {
		t.Fatalf("appends = %d, want 1", st.Appends)
	}
}
