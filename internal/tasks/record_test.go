package tasks

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"juryselect/internal/pool"
	"juryselect/jury"
)

func f64p(v float64) *float64 { return &v }
func boolp(v bool) *bool      { return &v }

// codecRecords is a corpus covering every record type and optional
// field combination.
func codecRecords() []record {
	utc := time.Date(2026, 7, 1, 12, 0, 0, 123456789, time.UTC)
	est := time.Date(2026, 2, 3, 4, 5, 6, 7, time.FixedZone("", -5*3600))
	return []record{
		{Type: recVote, At: utc, Task: "t00000001", Juror: "j0042", Vote: boolp(true)},
		{Type: recVote, At: utc, Task: "t00000002", Juror: "j0000", Vote: boolp(false)},
		{Type: recDecline, At: est, Task: "t00000001", Juror: "j0001"},
		{Type: recDecline, At: utc, Task: "t00000001", Juror: "j0001", Timeout: true},
		{Type: recExpire, At: utc, Task: "t00000009"},
		{Type: recTaskCreate, At: utc, Seq: 7, PoolVersion: 3, PredictedJER: 0.25,
			Spec: &Spec{Pool: "crowd", Question: "is it?", Strategy: StrategyPay, Budget: 5.5,
				TargetConfidence: 0.9, MaxInvites: 12, JurorTimeout: time.Minute, ExpiresIn: time.Hour},
			Jury: []recJuror{{ID: "a", ErrorRate: 0.1, Cost: 1.25}, {ID: "b", ErrorRate: 0.2}}},
		{Type: recTaskCreate, At: utc, Seq: 0, PoolVersion: 1,
			Spec: &Spec{Pool: "p", Strategy: StrategyAltr, TargetConfidence: 1,
				MaxInvites: 2, JurorTimeout: time.Second, ExpiresIn: time.Second},
			Jury: []recJuror{}},
		{Type: recPoolPut, At: utc, Pool: "crowd", Jurors: []jury.Juror{
			{ID: "a", ErrorRate: 0.1, Cost: 2}, {ID: "b", ErrorRate: 0.3}}},
		{Type: recPoolPatch, At: utc, Pool: "crowd", Updates: []pool.JurorUpdate{
			{ID: "a", ErrorRate: f64p(0.2)},
			{ID: "b", Cost: f64p(3.5), Votes: &pool.VoteObservation{Wrong: 1, Total: 5}},
			{ID: "c", Remove: true},
			{ID: "d", ErrorRate: f64p(math.Nextafter(0.1, 1)), Cost: f64p(0)},
		}},
		{Type: recPoolDelete, Pool: "crowd"},
	}
}

// TestRecordBinaryRoundTrip checks that the v2 binary codec is lossless
// for every record shape: decode(encode(r)) == r, including exact
// float bits and timestamps that re-marshal byte-identically.
func TestRecordBinaryRoundTrip(t *testing.T) {
	tab := newInternTable()
	for _, rec := range codecRecords() {
		raw, err := encodeRecord(nil, &rec)
		if err != nil {
			t.Fatalf("encode %s: %v", rec.Type, err)
		}
		if raw[0] == '{' {
			t.Fatalf("%s: binary encoding starts with '{' — reads as the pre-v2 JSON framing", rec.Type)
		}
		got, err := decodeRecord(raw, tab)
		if err != nil {
			t.Fatalf("decode %s: %v", rec.Type, err)
		}
		// Compare through JSON: the decoded time's Location pointer may
		// differ from the original's even when the instant, offset and
		// wire rendering are identical — which is the property replay
		// actually needs.
		want, _ := json.Marshal(rec)
		have, _ := json.Marshal(got)
		if string(want) != string(have) {
			t.Errorf("%s round trip:\n got %s\nwant %s", rec.Type, have, want)
		}
	}
}

// TestRecordDecodeRejectsJSONFraming: a payload in the pre-v2 JSON
// framing decodes to ErrPreV2WAL, never to a record.
func TestRecordDecodeRejectsJSONFraming(t *testing.T) {
	_, err := decodeRecord([]byte(`{"t":"vote","task":"t00000000","juror":"a","vote":true}`), newInternTable())
	if !errors.Is(err, ErrPreV2WAL) {
		t.Fatalf("decoding a JSON-framed record = %v, want ErrPreV2WAL", err)
	}
}

// TestRecordDecodeTruncated checks that every truncation of a binary
// record fails loudly instead of yielding a partial record.
func TestRecordDecodeTruncated(t *testing.T) {
	tab := newInternTable()
	for _, rec := range codecRecords() {
		raw, err := encodeRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(raw); cut++ {
			if _, err := decodeRecord(raw[:cut], tab); err == nil {
				t.Fatalf("%s: decoding %d/%d bytes succeeded", rec.Type, cut, len(raw))
			}
		}
	}
}

// TestRecordEncodeAllocFree pins the vote hot path's encoding cost:
// appending into a reused buffer must not allocate.
func TestRecordEncodeAllocFree(t *testing.T) {
	rec := record{Type: recVote, At: time.Now().UTC(), Task: "t00000001", Juror: "j0042", Vote: boolp(true)}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if _, err = encodeRecord(buf[:0], &rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encodeRecord(vote) allocates %.1f/op, want 0", allocs)
	}
}

// TestOpenRefusesJSONFramedWAL writes a log holding a pre-v2 JSON
// record — alone, and after intact binary records — and requires Open
// to fail with ErrPreV2WAL naming the file, leaving the log untouched.
func TestOpenRefusesJSONFramedWAL(t *testing.T) {
	legacy := []byte(`{"t":"pool_put","at":"2026-07-01T12:00:00Z","pool":"p","jurors":[{"id":"a","error_rate":0.1}]}`)
	put := record{Type: recPoolPut, At: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC), Pool: "p",
		Jurors: []jury.Juror{{ID: "a", ErrorRate: 0.1}, {ID: "b", ErrorRate: 0.2}}}
	binary, err := encodeRecord(nil, &put)
	if err != nil {
		t.Fatal(err)
	}
	for name, payloads := range map[string][][]byte{
		"json-only":        {legacy},
		"binary-then-json": {binary, legacy},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := walFile(dir, 0)
			w, err := OpenWAL(path, WALOptions{Sync: SyncOff}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads {
				if err := appendDurable(w, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			s, err := Open(Config{Dir: dir, Sync: SyncOff})
			if err == nil {
				s.Close() //nolint:errcheck
				t.Fatal("Open replayed a JSON-framed log")
			}
			if !errors.Is(err, ErrPreV2WAL) {
				t.Fatalf("Open = %v, want ErrPreV2WAL", err)
			}
			if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "pre-v2") {
				t.Errorf("error %q does not name the file and the pre-v2 format", msg)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("refused log was modified")
			}
		})
	}
}

// fingerprintViews renders views for comparison.
func fingerprintViews(vs []View) string {
	raw, err := json.MarshalIndent(vs, "", " ")
	if err != nil {
		panic(err)
	}
	return string(raw)
}
