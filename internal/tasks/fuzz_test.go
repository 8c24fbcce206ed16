package tasks

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"juryselect/jury"
)

// The two binary decoders read bytes from disk, a trust boundary: the
// WAL record decoder and the snapshot section decoder. Their seed
// corpora under testdata/fuzz hold encodeRecord output for every record
// shape and every section of a small real snapshot. FuzzRestoreSnapshot
// feeds whole snapshots of fuzzer-chosen sections, seeded from the
// section corpus, through the checks behind the CRC. FuzzOpenWAL opens
// fuzzer-written logs against readWAL, the in-memory reader the
// streaming replay replaced. Explore with
//
//	go test -run '^$' -fuzz='^FuzzDecodeRecord$' ./internal/tasks/
//	go test -run '^$' -fuzz='^FuzzDecodeSnapshotFrame$' ./internal/tasks/
//	go test -run '^$' -fuzz='^FuzzRestoreSnapshot$' ./internal/tasks/
//	go test -run '^$' -fuzz='^FuzzOpenWAL$' ./internal/tasks/

// decodeAllocBudget bounds what decoding n bytes may allocate. Legal
// payloads stay well inside it (the densest, a run of version floors or
// zone-switching times, allocate a few dozen bytes per input byte); a
// decoder that sized a slice or map from an element count without
// checking it against the bytes that remain blows through it.
func decodeAllocBudget(n int) uint64 { return 64*uint64(n) + 64<<10 }

// checkDecoder asserts the properties both fuzz targets share: decode
// does not panic, allocates within decodeAllocBudget, and a payload
// that decodes re-encodes to one that decodes to the same value — the
// second decode re-encodes to the same bytes as the first. Byte
// equality with the input is not required: varints accept non-minimal
// forms and flags carry ignored bits.
func checkDecoder[T any](t *testing.T, payload []byte,
	decode func([]byte, *internTable) (T, error), encode func(T) ([]byte, error)) {
	tab := newInternTable()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v, err := decode(payload, tab)
	runtime.ReadMemStats(&m1)
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > decodeAllocBudget(len(payload)) {
		t.Fatalf("decoding %d bytes allocated %d", len(payload), alloc)
	}
	if err != nil {
		return
	}
	first, err := encode(v)
	if err != nil {
		t.Fatalf("re-encoding a decoded payload: %v", err)
	}
	v2, err := decode(first, newInternTable())
	if err != nil {
		t.Fatalf("re-encoded payload does not decode: %v\n%x", err, first)
	}
	second, err := encode(v2)
	if err != nil {
		t.Fatalf("re-encoding the second decode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("decode∘encode is not stable:\n%x\n%x", first, second)
	}
}

func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecoder(t, payload, decodeRecord, func(rec record) ([]byte, error) {
			return encodeRecord(nil, &rec)
		})
	})
}

// encodeSection re-encodes a decoded snapshot section.
func encodeSection(f snapFrame) ([]byte, error) {
	switch f.kind {
	case secHeader:
		return appendHeaderSection(nil, &f.header), nil
	case secPool:
		return appendPoolSection(nil, f.pool), nil
	case secView:
		return appendViewSection(nil, f.view, f.jurors), nil
	case secTask:
		return appendTaskSection(nil, f.task, f.pinned), nil
	default:
		return appendTrailerSection(nil, f.counts), nil
	}
}

func FuzzDecodeSnapshotFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecoder(t, payload, decodeSnapshotFrame, encodeSection)
	})
}

// snapshotCorpus returns the FuzzDecodeSnapshotFrame seed payloads in
// file name order, which is section order: the sections of one small
// real snapshot.
func snapshotCorpus(tb testing.TB) [][]byte {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshotFrame")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		head, body, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(body, "[]byte(")
		if head != "go test fuzz v1" || !ok || !strings.HasSuffix(quoted, ")") {
			tb.Fatalf("%s: not a one-[]byte corpus file", e.Name())
		}
		payload, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			tb.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, []byte(payload))
	}
	return out
}

// joinSections encodes payloads as FuzzRestoreSnapshot reads its input:
// each payload after its length as a uvarint.
func joinSections(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	return b
}

// restoreAllocBudget bounds what restoring a snapshot of n framed bytes
// may allocate. Decoding takes up to 64 bytes per byte. A task section,
// about 70 framed bytes at the least, may land up to maxTaskGap past the
// last task, which costs the table one 8 KiB chunk and 1,025 directory
// entries, 8 KiB; the directory grows by doubling, so it allocates at
// most four times the entries it needs. That is ~41 KiB per task
// section, under 600 bytes per byte. A restore past 1 KiB per byte is
// sizing an allocation by a count or number the file names.
func restoreAllocBudget(n int) uint64 { return 1024*uint64(n) + 256<<10 }

func FuzzRestoreSnapshot(f *testing.F) {
	sections := snapshotCorpus(f)
	f.Add(joinSections(sections...))
	for _, p := range sections {
		f.Add(joinSections(p))
	}
	eng := jury.NewEngine(jury.BatchOptions{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		for len(data) > 0 {
			n, k := binary.Uvarint(data)
			if k <= 0 || n > uint64(len(data)-k) {
				n, k = uint64(len(data)), 0 // the rest is the last section
			}
			payloads = append(payloads, data[k:k+int(n)])
			data = data[k+int(n):]
		}
		framed := frameSnapshot(t, payloads)
		s, err := Open(Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(framed)), remaining: int64(len(framed))}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.restore(fr) //nolint:errcheck // refusing is fine; panicking or overallocating is not
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > restoreAllocBudget(len(framed)) {
			t.Fatalf("restoring %d bytes allocated %d", len(framed), alloc)
		}
	})
}

// FuzzOpenWAL writes the input as a log and opens it. OpenWAL must
// replay exactly the payloads readWAL finds, in order, report that count
// and the bytes after them as ReplayRecords and TornBytes, and leave the
// file as exactly that intact prefix.
func FuzzOpenWAL(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.log") // inputs run one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, validLen, err := readWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		w, err := OpenWAL(path, WALOptions{Sync: SyncOff}, func(payload []byte) error {
			got = append(got, bytes.Clone(payload))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		st := w.Stats()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, readWAL finds %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i].payload) {
				t.Fatalf("record %d: %x, readWAL finds %x", i, got[i], want[i].payload)
			}
		}
		if st.ReplayRecords != int64(len(want)) || st.TornBytes != int64(len(data))-validLen {
			t.Fatalf("stats report %d records and %d torn bytes, want %d and %d",
				st.ReplayRecords, st.TornBytes, len(want), int64(len(data))-validLen)
		}
		if left, err := os.ReadFile(path); err != nil || !bytes.Equal(left, data[:validLen]) {
			t.Fatalf("left %d bytes (err %v), want the %d-byte intact prefix", len(left), err, validLen)
		}
	})
}
