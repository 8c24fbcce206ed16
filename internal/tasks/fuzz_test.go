package tasks

import (
	"bytes"
	"runtime"
	"testing"
)

// The two binary decoders read bytes from disk, a trust boundary: the
// WAL record decoder and the snapshot section decoder. Their seed
// corpora under testdata/fuzz hold encodeRecord output for every record
// shape and every section of a small real snapshot. Explore with
//
//	go test -run '^$' -fuzz='^FuzzDecodeRecord$' ./internal/tasks/
//	go test -run '^$' -fuzz='^FuzzDecodeSnapshotFrame$' ./internal/tasks/

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
