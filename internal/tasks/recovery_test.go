package tasks

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"juryselect/internal/pool"
	"juryselect/internal/randx"
	"juryselect/jury"
)

// poolPrint is one pool's part of a store fingerprint.
type poolPrint struct {
	Name      string           `json:"name"`
	Version   uint64           `json:"version"`
	UpdatedAt time.Time        `json:"updated_at"`
	Jurors    []pool.PoolJuror `json:"jurors"`
}

// storeFingerprint renders the complete externally visible state — every
// pool (version, members, vote records), the per-name version floors
// and every task view — as deterministic JSON. Byte equality of
// fingerprints is the recovery acceptance criterion.
func storeFingerprint(t *testing.T, s *Store) []byte {
	t.Helper()
	doc := struct {
		Pools  []poolPrint       `json:"pools"`
		Floors map[string]uint64 `json:"floors"`
		Tasks  []View            `json:"tasks"`
	}{Floors: s.Pools().VersionFloors(), Tasks: s.List("")}
	for _, p := range s.Pools().List() {
		members := make([]pool.PoolJuror, p.Size())
		for i := range members {
			members[i] = p.Member(i)
		}
		doc.Pools = append(doc.Pools, poolPrint{p.Name, p.Version, p.UpdatedAt, members})
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// buildBusyStore drives a realistic mixed workload against a durable
// store: pool churn, task creation, votes (some tasks deciding early),
// declines with replacement, a timeout sweep and an expiry.
func buildBusyStore(t *testing.T, dir string, clk *fakeClock) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(25)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PatchPool("crowd", []pool.JurorUpdate{
		{ID: "j003", Votes: &pool.VoteObservation{Wrong: 2, Total: 9}},
		{ID: "j024", Remove: true},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Task 0: decided by unanimous votes (early stop).
	v0, err := s.Create(ctx, Spec{Pool: "crowd", Question: "is it raining?"})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range v0.Jurors {
		view, err := s.Vote(context.Background(), v0.ID, j.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if view.Status.closed() {
			break
		}
	}

	// Task 1: split votes plus a decline with replacement, still open.
	clk.advance(3 * time.Second)
	v1, err := s.Create(ctx, Spec{Pool: "crowd", TargetConfidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	s.Vote(context.Background(), v1.ID, v1.Jurors[0].ID, true)  //nolint:errcheck
	s.Vote(context.Background(), v1.ID, v1.Jurors[1].ID, false) //nolint:errcheck
	if _, err := s.Decline(context.Background(), v1.ID, v1.Jurors[2].ID); err != nil {
		t.Fatal(err)
	}

	// Task 2: open, then its jury times out and replacements arrive.
	clk.advance(2 * time.Second)
	if _, err := s.Create(ctx, Spec{Pool: "crowd", JurorTimeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(clk.advance(15 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// Task 3: expires outright.
	v3, err := s.Create(ctx, Spec{Pool: "crowd", ExpiresIn: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(clk.advance(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(v3.ID); got.Status != StatusExpired {
		t.Fatalf("task 3 status %q, want expired", got.Status)
	}
	return s
}

// TestRecoveryByteIdentical is the acceptance criterion: a process that
// dies without any shutdown (the WAL file simply stops) must replay to
// the exact pre-crash store — pool versions, open tasks, tallied votes.
func TestRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := buildBusyStore(t, dir, clk)
	before := storeFingerprint(t, s)
	// Simulated kill -9: no Close, no final sync. SyncOff still flushes
	// each record to the kernel, which is what survives a process kill.

	s2, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	after := storeFingerprint(t, s2)
	if string(before) != string(after) {
		t.Fatalf("recovered state diverges:\n--- before crash ---\n%s\n--- after recovery ---\n%s", before, after)
	}
	rec := s2.Recovery()
	if rec.Records == 0 || rec.Tasks != 4 || rec.Pools != 1 {
		t.Fatalf("recovery stats = %+v", rec)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rec.TornBytes)
	}

	// The recovered store is live: the open task keeps accepting votes
	// and new tasks continue the ID sequence.
	v, err := s2.Create(context.Background(), Spec{Pool: "crowd"})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "t00000004" {
		t.Fatalf("post-recovery task ID %q, want t00000004", v.ID)
	}
}

// TestRecoveryTornTail is the satellite crash test: truncate the WAL
// mid-record to simulate a torn write; the restart must recover exactly
// the pre-crash state minus only the torn tail.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(15)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create(context.Background(), Spec{Pool: "crowd", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Votes land one record at a time; fingerprint after each.
	var prints [][]byte
	prints = append(prints, storeFingerprint(t, s))
	for _, j := range v.Jurors {
		if _, err := s.Vote(context.Background(), v.ID, j.ID, true); err != nil {
			t.Fatal(err)
		}
		prints = append(prints, storeFingerprint(t, s))
	}

	walPath := walFile(dir, 0)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := readWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the final record: 2 pre-task records (put,
	// create) followed by one record per vote, so dropping the torn tail
	// must land exactly on the state after len(jury)-1 votes.
	lastLen := walFrameOverhead + len(records[len(records)-1].payload)
	torn := raw[:len(raw)-lastLen+5]
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	rec := s2.Recovery()
	if rec.TornBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	want := prints[len(prints)-2] // state minus exactly the torn vote
	got := storeFingerprint(t, s2)
	if string(got) != string(want) {
		t.Fatalf("torn-tail recovery diverges from pre-torn state:\n%s\nvs\n%s", got, want)
	}
	// The lost vote can simply be re-submitted.
	lost := v.Jurors[len(v.Jurors)-1]
	view, err := s2.Vote(context.Background(), v.ID, lost.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDecided {
		t.Fatalf("re-voted task status %q", view.Status)
	}
	if string(storeFingerprint(t, s2)) != string(prints[len(prints)-1]) {
		t.Fatal("re-submitted vote did not reconverge to the pre-crash state")
	}
}

// TestCompactionRoundTrip: snapshot + fresh epoch recover the same state
// as replaying the full log, and stale epoch files are cleaned up.
func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := buildBusyStore(t, dir, clk)
	before := storeFingerprint(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if string(storeFingerprint(t, s)) != string(before) {
		t.Fatal("compaction changed live state")
	}
	if st := s.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d", st.Compactions)
	}
	// Post-compaction mutations land in the new epoch.
	v, err := s.Create(context.Background(), Spec{Pool: "crowd"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vote(context.Background(), v.ID, v.Jurors[0].ID, false); err != nil {
		t.Fatal(err)
	}
	withNew := storeFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	rec := s2.Recovery()
	if !rec.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	if rec.Records != 2 {
		t.Fatalf("replayed %d records from the new epoch, want 2 (create+vote)", rec.Records)
	}
	if got := storeFingerprint(t, s2); string(got) != string(withNew) {
		t.Fatalf("snapshot+epoch recovery diverges:\n%s\nvs\n%s", got, withNew)
	}
	// Exactly one wal file (the current epoch) remains.
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0] != walFile(dir, 1) {
		t.Fatalf("wal files after compaction: %v", matches)
	}
}

// TestCompactionDropsStaleNextEpoch: a crashed earlier compaction may
// leave records in the next epoch's log, which an older snapshot covers.
// Compaction must drop them before the new snapshot names that epoch,
// or a restart would replay them on top of it.
func TestCompactionDropsStaleNextEpoch(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := buildBusyStore(t, dir, clk)
	before := storeFingerprint(t, s)
	w, err := OpenWAL(walFile(dir, 1), WALOptions{Sync: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := encodeRecord(nil, &record{Type: recPoolDelete, Pool: "crowd"})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(w, stale); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	if rec := s2.Recovery(); !rec.SnapshotLoaded || rec.Records != 0 {
		t.Fatalf("snapshot loaded %v, replayed %d records, want the snapshot and 0", rec.SnapshotLoaded, rec.Records)
	}
	if got := storeFingerprint(t, s2); string(got) != string(before) {
		t.Fatalf("recovery after compaction diverges:\n%s\nvs\n%s", got, before)
	}
}

// TestAutoCompaction: crossing CompactEvery folds the log into the
// snapshot without losing state.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now, CompactEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.PatchPool("crowd", []pool.JurorUpdate{
			{ID: fmt.Sprintf("j%03d", i%10), Votes: &pool.VoteObservation{Wrong: int64(i % 2), Total: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("auto-compaction never fired")
	}
	before := storeFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now, CompactEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	if got := storeFingerprint(t, s2); string(got) != string(before) {
		t.Fatal("auto-compacted store did not recover identically")
	}
	p, ok := s2.Pools().Get("crowd")
	if !ok || p.Version != 31 {
		t.Fatalf("recovered pool version %d, want 31", p.Version)
	}
}

// TestMemoryOnlyStoreHasNoWAL: Dir "" runs the same lifecycle without
// touching disk.
func TestMemoryOnlyStoreHasNoWAL(t *testing.T) {
	s, _ := newTestStore(t, 10)
	if s.Durable() {
		t.Fatal("memory store claims durability")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("memory compact = %v", err)
	}
	if st := s.Stats(); st.WAL.Appends != 0 {
		t.Fatalf("memory store counted WAL appends: %+v", st.WAL)
	}
}

// BenchmarkWALAppend times one record append. off is the serial
// buffered write TestWALAppendAllocFree holds at zero allocations. batch
// waits for the group-commit fsync, which only pays off under fan-in: a
// serial loop would time one whole fsync per append, so eight appenders
// per GOMAXPROCS share each fsync and ns/op is the amortized durable
// append at that fan-in.
func BenchmarkWALAppend(b *testing.B) {
	payload := []byte(`{"t":"vote","task":"t00000001","juror":"j00042","vote":true}`)
	for _, mode := range []SyncMode{SyncOff, SyncBatch} {
		b.Run(string(mode), func(b *testing.B) {
			w, err := OpenWAL(filepath.Join(b.TempDir(), "wal.log"), WALOptions{Sync: mode}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close() //nolint:errcheck
			b.ReportAllocs()
			b.ResetTimer()
			if mode == SyncOff {
				for i := 0; i < b.N; i++ {
					if err := appendDurable(w, payload); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := appendDurable(w, payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
		})
	}
}

// BenchmarkTaskHammer is the mixed concurrent write load: eight
// goroutines per GOMAXPROCS, however few cores there are, because the
// load waits on fsync rather than the CPU. Each goroutine creates its own
// fixed-jury tasks on benchJurors(101) and votes them through, every
// mutation durable at fsync=batch. One op is one create or vote, and
// votes/s is the durable write throughput. Compaction is off so that its
// snapshot does not mask the write path.
func BenchmarkTaskHammer(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir(), Sync: SyncBatch, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	if _, err := s.PutPool("crowd", benchJurors(101)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var votes atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var v View
		next := 0
		for pb.Next() {
			if next == len(v.Jurors) {
				var err error
				if v, err = s.Create(ctx, Spec{Pool: "crowd", TargetConfidence: 1}); err != nil {
					b.Error(err)
					return
				}
				next = 0
				continue
			}
			if _, err := s.Vote(ctx, v.ID, v.Jurors[next].ID, next%2 == 0); err != nil {
				b.Error(err)
				return
			}
			next++
			votes.Add(1)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(votes.Load())/b.Elapsed().Seconds(), "votes/s")
}

// benchJurors draws n jurors with stable IDs j0000, j0001, … from seed
// 11: ε ~ N(0.3, 0.15) and cost ~ N(0.1, 0.1), both truncated. The
// altruistic jury of benchJurors(101) has 65 members.
func benchJurors(n int) []jury.Juror {
	src := randx.New(11)
	rates := src.ErrorRates(n, 0.3, 0.15)
	costs := src.Requirements(n, 0.1, 0.1)
	out := make([]jury.Juror, n)
	for i := range out {
		out[i] = jury.Juror{ID: fmt.Sprintf("j%04d", i), ErrorRate: rates[i], Cost: costs[i]}
	}
	return out
}

// writeReplayLog journals a vote-heavy log into a fresh directory: one
// 101-juror pool, then 200 fixed-jury tasks voted through. It returns the
// config that reopens the log and the number of records in it.
func writeReplayLog(tb testing.TB) (Config, int64) {
	cfg := Config{Dir: tb.TempDir(), Sync: SyncOff, Now: newFakeClock().now, CompactEvery: -1}
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(101)); err != nil {
		tb.Fatal(err)
	}
	records := int64(1)
	for i := 0; i < 200; i++ {
		v, err := s.Create(context.Background(), Spec{Pool: "crowd", TargetConfidence: 1})
		if err != nil {
			tb.Fatal(err)
		}
		records++
		for _, j := range v.Jurors {
			if _, err := s.Vote(context.Background(), v.ID, j.ID, i%2 == 0); err != nil {
				tb.Fatal(err)
			}
			records++
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return cfg, records
}

// reopen recovers the store cfg names and fails tb unless it replayed
// records records.
func reopen(tb testing.TB, cfg Config, records int64) *Store {
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if got := s.Recovery().Records; got != records {
		tb.Fatalf("replayed %d records, want %d", got, records)
	}
	return s
}

// TestStoreReplayAllocations caps what recovering BenchmarkStoreReplay's
// log allocates, Open plus Close, counted as testing.AllocsPerRun counts
// (after one warm-up run, at GOMAXPROCS 1) with the collector off. The
// log streams through one frame buffer and one intern table, so every
// run reads the same: the count cap is that reading, and the byte bound
// is its 977,392 B plus 10%. Before tasks stored their juror arrays
// once, the same recovery allocated 17,405 objects.
func TestStoreReplayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	const allocLimit, byteLimit, runs = 1805, 977_392 * 11 / 10, 3
	cfg, records := writeReplayLog(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reopen(t, cfg, records).Close() //nolint:errcheck // warm-up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		reopen(t, cfg, records).Close() //nolint:errcheck
	}
	runtime.ReadMemStats(&m1)
	allocs, bytes := (m1.Mallocs-m0.Mallocs)/runs, (m1.TotalAlloc-m0.TotalAlloc)/runs
	t.Logf("replay of %d records: %d allocs and %d B per op (caps %d and %d)", records, allocs, bytes, allocLimit, byteLimit)
	if allocs > allocLimit {
		t.Errorf("replaying %d records allocates %d objects, cap %d", records, allocs, allocLimit)
	}
	if bytes > byteLimit {
		t.Errorf("replaying %d records allocates %d B, cap %d", records, bytes, byteLimit)
	}
}

// BenchmarkStoreReplay measures recovery throughput: records replayed
// per second from a vote-heavy log.
func BenchmarkStoreReplay(b *testing.B) {
	cfg, records := writeReplayLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := reopen(b, cfg, records)
		b.StopTimer()
		s.Close() //nolint:errcheck
		b.StartTimer()
	}
	b.ReportMetric(float64(records*int64(b.N))/b.Elapsed().Seconds(), "records/s")
}
