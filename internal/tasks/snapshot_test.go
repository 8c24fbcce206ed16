package tasks

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"juryselect/internal/core"
	"juryselect/internal/pool"
	"juryselect/jury"
)

// snapshotSections decodes every section of dir's snapshot.bin.
func snapshotSections(t *testing.T, dir string) []snapFrame {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{r: bufio.NewReader(f), remaining: info.Size()}
	tab := newInternTable()
	var out []snapFrame
	for fr.remaining > 0 {
		payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		sec, err := decodeSnapshotFrame(payload, tab)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sec)
	}
	return out
}

// sameArray reports whether two non-empty slices share a backing array.
func sameArray(a, b []jury.Juror) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestCompactionStoresEachPinnedViewOnce covers open tasks pinned to
// their pool's live version, to a version a PATCH has since superseded
// and to a deleted pool. The snapshot writes each view that is not live
// once however many tasks pin it, and the live ones not at all; after
// reopening, the tasks pinning one view share one slice — the pool's
// own sorted view when the version is live — and replacements still
// come from the pinned view.
func TestCompactionStoresEachPinnedViewOnce(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cfg := Config{Dir: dir, Sync: SyncOff, Now: clk.now, CompactEvery: -1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(25)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("panel", crowdJurors(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("gone", crowdJurors(7)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	create := func(pool string, target float64) View {
		t.Helper()
		clk.advance(time.Second)
		v, err := s.Create(ctx, Spec{Pool: pool, TargetConfidence: target})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Pinned to crowd v1: t0 closes, t1 (one vote in) and t2 stay open.
	t0 := create("crowd", 0.9)
	for _, j := range t0.Jurors {
		if v, err := s.Vote(ctx, t0.ID, j.ID, true); err != nil {
			t.Fatal(err)
		} else if v.Status.closed() {
			break
		}
	}
	t1 := create("crowd", 0.999)
	if _, err := s.Vote(ctx, t1.ID, t1.Jurors[0].ID, false); err != nil {
		t.Fatal(err)
	}
	t2 := create("crowd", 0.999)
	// crowd v2 moves j020 from the tail to the head of the ε order, so a
	// replacement drawn from the wrong view would be j020.
	if _, err := s.PatchPool("crowd", []pool.JurorUpdate{{ID: "j020", ErrorRate: f64p(0.05)}}); err != nil {
		t.Fatal(err)
	}
	t3 := create("crowd", 0.999) // pinned to the live crowd v2
	t4 := create("crowd", 0.999)
	t5 := create("panel", 0.999) // pinned to the live panel v1
	t6 := create("gone", 0.999)  // pinned to a pool deleted below
	if _, err := s.DeletePool("gone"); err != nil {
		t.Fatal(err)
	}

	open := []string{t1.ID, t2.ID, t3.ID, t4.ID, t5.ID, t6.ID}
	want := make(map[string][]jury.Juror)
	for _, id := range open {
		want[id] = append([]jury.Juror(nil), s.lookup(id).candidates...)
	}
	before := storeFingerprint(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var views []viewKey
	for _, sec := range snapshotSections(t, dir) {
		if sec.kind == secView {
			views = append(views, sec.view)
		}
	}
	if !reflect.DeepEqual(views, []viewKey{{pool: "crowd", version: 1}, {pool: "gone", version: 1}}) {
		t.Fatalf("view sections %v, want crowd v1 and gone v1 once each", views)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	if got := storeFingerprint(t, s2); !bytes.Equal(got, before) {
		t.Fatalf("restored state diverges:\n%s\nvs\n%s", got, before)
	}
	for _, id := range open {
		if got := s2.lookup(id).candidates; !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("%s restored candidates differ from the pinned view", id)
		}
	}
	if c := s2.lookup(t0.ID).candidates; c != nil {
		t.Fatalf("closed task restored with %d candidates", len(c))
	}
	crowd, _ := s2.Pools().Get("crowd")
	panel, _ := s2.Pools().Get("panel")
	cand := func(id string) []jury.Juror { return s2.lookup(id).candidates }
	if !sameArray(cand(t1.ID), cand(t2.ID)) || sameArray(cand(t1.ID), crowd.Sorted()) {
		t.Error("tasks pinned to crowd v1 do not share one restored view")
	}
	if !sameArray(cand(t3.ID), crowd.Sorted()) || !sameArray(cand(t4.ID), crowd.Sorted()) {
		t.Error("tasks pinned to the live crowd version do not share the pool's sorted view")
	}
	if !sameArray(cand(t5.ID), panel.Sorted()) {
		t.Error("task pinned to the live panel version does not share the pool's sorted view")
	}

	// The deleted pool's version floor survived: re-creating it
	// continues the sequence.
	if p, err := s2.PutPool("gone", crowdJurors(3)); err != nil || p.Version != 2 {
		t.Fatalf("re-created pool = %+v, %v; want version 2", p, err)
	}

	// A decline on a task pinned to v1 invites the best v1 candidate not
	// yet invited.
	invited := make(map[string]bool)
	for _, j := range t2.Jurors {
		invited[j.ID] = true
	}
	var next string
	for _, c := range want[t2.ID] {
		if !invited[c.ID] {
			next = c.ID
			break
		}
	}
	v, err := s2.Decline(ctx, t2.ID, t2.Jurors[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Jurors[len(v.Jurors)-1].ID; got != next || next == "j020" {
		t.Fatalf("replacement %s, want %s from the pinned v1 view", got, next)
	}
}

// buildLifecycleShapedStore fills a store the way perfbench's
// task-lifecycle workload does: 64 pools of 1,001 jurors, 340 pay tasks
// of which 15 stay open.
func buildLifecycleShapedStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pools, size = 64, 1001
	for p := 0; p < pools; p++ {
		jurors := make([]jury.Juror, size)
		for i := range jurors {
			h := uint64(p*size+i)*0x9E3779B97F4A7C15 + 1
			jurors[i] = jury.Juror{
				ID:        fmt.Sprintf("p%02dj%04d", p, i),
				ErrorRate: 0.05 + 0.4*float64(h>>40%1000)/1000,
				Cost:      0.05 + float64(h>>20%100)/100,
			}
		}
		if _, err := s.PutPool(fmt.Sprintf("pool%02d", p), jurors); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for i := 0; i < 340; i++ {
		v, err := s.Create(ctx, Spec{Pool: fmt.Sprintf("pool%02d", i%pools),
			Strategy: StrategyPay, Budget: float64(4 + 2*(i%3)), TargetConfidence: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i%23 == 0 {
			continue // stays open
		}
		for k, j := range v.Jurors {
			if _, err := s.Vote(ctx, v.ID, j.ID, k%3 != 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestCompactStreamsSnapshot pins the streaming property: compaction
// encodes from live state through one buffered writer, so what it
// allocates is a small fraction of the file it writes (a whole-file
// encode allocates several times the file).
func TestCompactStreamsSnapshot(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cfg := Config{Dir: dir, Sync: SyncOff, Now: clk.now, CompactEvery: -1}
	s := buildLifecycleShapedStore(t, cfg)
	if open := s.Stats().Open; open != 15 {
		t.Fatalf("%d open tasks, want 15", open)
	}
	before := storeFingerprint(t, s)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("Compact allocated %d bytes for a %d-byte snapshot", alloc, info.Size())
	if 2*alloc >= uint64(info.Size()) {
		t.Fatalf("Compact allocated %d bytes for a %d-byte snapshot, want under half", alloc, info.Size())
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	if got := storeFingerprint(t, s2); !bytes.Equal(got, before) {
		t.Fatal("lifecycle-shaped store did not recover identically from its snapshot")
	}
}

// TestCompactRefusesFailedStore: a failed journal append leaves the
// pool store ahead of the log (pool writes apply before they journal),
// so Compact must refuse rather than snapshot state the log never held.
func TestCompactRefusesFailedStore(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Load().Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.PatchPool("crowd", []pool.JurorUpdate{{ID: "j001", ErrorRate: f64p(0.3)}})
	if !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("PatchPool on a closed WAL = %v, want ErrStoreFailed", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Compact on a failed store = %v, want ErrStoreFailed", err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "snapshot*")); len(matches) != 0 {
		t.Fatalf("failed store wrote %v", matches)
	}
}

// dirContents maps each file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestOpenRefusesV1Snapshot: a directory holding a v1 JSON snapshot and
// its WAL epoch is refused by name, before anything is loaded, replayed
// or removed.
func TestOpenRefusesV1Snapshot(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, v1SnapshotFileName)
	doc := `{"schema":"juryselect-taskwal/v1","epoch":1,"pools":{"pools":[{"name":"crowd","version":1,` +
		`"updated_at":"2026-07-01T12:00:00Z","jurors":[{"id":"a","error_rate":0.1}]}]},"tasks":null,"next_task":0}`
	if err := os.WriteFile(v1, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(walFile(dir, 1), WALOptions{Sync: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeRecord(nil, &record{Type: recPoolPatch, At: newFakeClock().now(), Pool: "crowd",
		Updates: []pool.JurorUpdate{{ID: "a", Votes: &pool.VoteObservation{Wrong: 1, Total: 4}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(w, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files := dirContents(t, dir)

	pools := pool.NewStore()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Pools: pools})
	if !errors.Is(err, ErrV1Snapshot) || s != nil {
		t.Fatalf("Open = (%v, %v), want ErrV1Snapshot", s, err)
	}
	if !strings.Contains(err.Error(), v1) {
		t.Errorf("error %q does not name %s", err, v1)
	}
	if got := dirContents(t, dir); !reflect.DeepEqual(got, files) {
		t.Fatal("refused Open changed the directory")
	}
	if pools.Len() != 0 {
		t.Fatal("refused Open restored pools")
	}
}

// TestOpenRejectsDamagedSnapshot: a snapshot is renamed into place only
// after its fsync, so unlike a WAL tail any damage is an error — every
// single flipped byte, a cut trailer, a missing trailer — and Open
// neither returns a store nor touches the caller's pools or the log.
func TestOpenRejectsDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := buildBusyStore(t, dir, clk)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(context.Background(), Spec{Pool: "crowd"}); err != nil {
		t.Fatal(err)
	}
	want := storeFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFileName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(walFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	sections := snapshotSections(t, dir)
	trailerLen := walFrameOverhead + len(appendTrailerSection(nil, sections[len(sections)-1].counts))

	damaged := map[string][]byte{
		"trailer cut short": good[:len(good)-1],
		"trailer missing":   good[:len(good)-trailerLen],
		"empty":             {},
	}
	for i := range good {
		b := bytes.Clone(good)
		b[i] ^= 0xFF
		damaged[fmt.Sprintf("byte %d flipped", i)] = b
	}
	for name, b := range damaged {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		pools := pool.NewStore()
		s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now, Pools: pools})
		if err == nil {
			s.Close() //nolint:errcheck
			t.Fatalf("%s: Open succeeded", name)
		}
		if s != nil || pools.Len() != 0 {
			t.Fatalf("%s: Open returned a partial store", name)
		}
	}
	if got, err := os.ReadFile(walFile(dir, 1)); err != nil || !bytes.Equal(got, wal) {
		t.Fatalf("failed opens changed the log (err %v)", err)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	if got := storeFingerprint(t, s2); !bytes.Equal(got, want) {
		t.Fatal("intact snapshot no longer recovers the store")
	}
}

// TestOpenRejectsInvalidPoolSection: a pool section that passes its CRC
// check but holds what the write path never publishes — a repeated
// juror ID, or no member at all — fails Open with an error naming the
// pool, as any damaged snapshot does.
func TestOpenRejectsInvalidPoolSection(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", []jury.Juror{{ID: "a", ErrorRate: 0.1}, {ID: "b", ErrorRate: 0.2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sections := snapshotSections(t, dir)
	if len(sections) != 3 || sections[1].kind != secPool {
		t.Fatalf("snapshot sections %d, want header, pool, trailer", len(sections))
	}
	p := sections[1].pool
	// poolSection encodes a pool section from raw members, which
	// appendPoolSection, reading a built pool, cannot express.
	poolSection := func(members ...jury.Juror) []byte {
		b := []byte{secPool}
		b = appendStr(b, p.Name)
		b = binary.AppendUvarint(b, p.Version)
		b = appendTime(b, p.UpdatedAt)
		b = binary.AppendUvarint(b, uint64(len(members)))
		for _, m := range members {
			b = appendStr(b, m.ID)
			b = appendF64(b, m.ErrorRate)
			b = appendF64(b, m.Cost)
			b = append(b, 0, 0)
		}
		return b
	}
	if got, want := poolSection(p.Member(0).Juror, p.Member(1).Juror), appendPoolSection(nil, p); !bytes.Equal(got, want) {
		t.Fatalf("hand-built pool section differs from appendPoolSection:\n%x\n%x", got, want)
	}
	for _, tc := range []struct {
		name    string
		section []byte
		want    error
	}{
		{"repeated id", poolSection(jury.Juror{ID: "a", ErrorRate: 0.1}, jury.Juror{ID: "a", ErrorRate: 0.2}), pool.ErrDuplicateJuror},
		{"no members", poolSection(), core.ErrNoCandidates},
	} {
		snapshot := frameSnapshot(t, [][]byte{appendHeaderSection(nil, &sections[0].header), tc.section,
			appendTrailerSection(nil, sections[2].counts)})
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now})
		if err == nil {
			s.Close() //nolint:errcheck
			t.Fatalf("%s: Open accepted the snapshot", tc.name)
		}
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), `"crowd"`) {
			t.Errorf("%s: Open error %q, want %v naming pool \"crowd\"", tc.name, err, tc.want)
		}
	}
}

// TestOpenRestoresEveryRecordThePatchPathWrites: a snapshot holds the
// vote records PATCHes accumulated, up to the int64 edge, and they must
// survive compaction and reopen unchanged. A PATCH whose batches would
// wrap a total is rejected and journals nothing.
func TestOpenRestoresEveryRecordThePatchPathWrites(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", []jury.Juror{{ID: "a", ErrorRate: 0.1}, {ID: "b", ErrorRate: 0.2}}); err != nil {
		t.Fatal(err)
	}
	wrap := []pool.JurorUpdate{{ID: "a", Votes: &pool.VoteObservation{Total: math.MaxInt64}}, {ID: "a", Votes: &pool.VoteObservation{Total: 1}}}
	if _, err := s.PatchPool("crowd", wrap); !errors.Is(err, pool.ErrVoteOverflow) {
		t.Fatalf("wrapping patch error = %v, want pool.ErrVoteOverflow", err)
	}
	if _, err := s.PatchPool("crowd", []pool.JurorUpdate{{ID: "b", Votes: &pool.VoteObservation{Wrong: math.MaxInt64, Total: math.MaxInt64}}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WAL.Appends; got != 2 {
		t.Fatalf("%d records journaled, want the put and the accepted patch", got)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	before := storeFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now})
	if err != nil {
		t.Fatalf("reopen of a compacted store: %v", err)
	}
	defer s2.Close() //nolint:errcheck
	if rec := s2.Recovery(); !rec.SnapshotLoaded || rec.Records != 0 {
		t.Fatalf("recovery %+v, want the snapshot alone", rec)
	}
	if got := storeFingerprint(t, s2); !bytes.Equal(got, before) {
		t.Fatalf("reopened store diverges:\n%s\nvs\n%s", got, before)
	}
}

// TestOpenRefusesWrappingPatchRecord: a WAL journaled before PatchAt
// bounded the vote totals may hold a patch that wraps one. Replay runs
// the write path's checks, so Open fails, naming the pool.
func TestOpenRefusesWrappingPatchRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walFile(dir, 0), WALOptions{Sync: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := newFakeClock().now()
	for _, rec := range []record{
		{Type: recPoolPut, At: at, Pool: "crowd", Jurors: []jury.Juror{{ID: "a", ErrorRate: 0.1}}},
		{Type: recPoolPatch, At: at, Pool: "crowd", Updates: []pool.JurorUpdate{
			{ID: "a", Votes: &pool.VoteObservation{Total: math.MaxInt64}}, {ID: "a", Votes: &pool.VoteObservation{Total: 1}}}},
	} {
		buf, err := encodeRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AppendAsync(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir, Sync: SyncOff})
	if err == nil {
		s.Close() //nolint:errcheck
		t.Fatal("Open replayed a patch that wraps a vote total")
	}
	if !errors.Is(err, pool.ErrVoteOverflow) || !strings.Contains(err.Error(), `"crowd"`) {
		t.Fatalf("Open error %q, want pool.ErrVoteOverflow naming pool \"crowd\"", err)
	}
}
