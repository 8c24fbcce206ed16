package tasks

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// viewIDs returns the views' task IDs in order.
func viewIDs(vs []View) []string {
	ids := make([]string, len(vs))
	for i, v := range vs {
		ids[i] = v.ID
	}
	return ids
}

// frameSnapshot frames payloads as snapshot.bin holds them.
func frameSnapshot(tb testing.TB, payloads [][]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	var hdr [walFrameOverhead]byte
	for _, p := range payloads {
		if err := writeFrame(w, &hdr, p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// writeLog replaces the log at path with payloads.
func writeLog(t *testing.T, path string, payloads [][]byte) {
	t.Helper()
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	w, err := OpenWAL(path, WALOptions{Sync: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.AppendAsync(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTaskOrderCrossesNinthDigit starts the numbering two below 10^8,
// where IDs grow a digit and string order stops being creation order.
// List, the sweep's journaled expiries and a reopen from a compacted
// snapshot all keep creation order, and so does a replay on top of it.
func TestTaskOrderCrossesNinthDigit(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cfg := Config{Dir: dir, Sync: SyncOff, Now: clk.now, CompactEvery: -1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.nextTask.Store(99_999_998)
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		t.Fatal(err)
	}
	want := []string{"t99999998", "t99999999", "t100000000"}
	for range want {
		if _, err := s.Create(context.Background(), Spec{Pool: "crowd", ExpiresIn: time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	if got := viewIDs(s.List("")); !slices.Equal(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if _, expired, err := s.Sweep(clk.advance(2 * time.Minute)); err != nil || expired != 3 {
		t.Fatalf("Sweep expired %d (err %v), want 3", expired, err)
	}
	// SyncOff hands every record to the kernel as it is appended.
	records, _, err := readWAL(walFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var swept []string
	for _, r := range records {
		rec, err := decodeRecord(r.payload, newInternTable())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == recExpire {
			swept = append(swept, rec.Task)
		}
	}
	if !slices.Equal(swept, want) {
		t.Fatalf("journaled expiries %v, want %v", swept, want)
	}

	// Reopen from the snapshot, create one more task, then replay it.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		if got := viewIDs(s.List(StatusExpired)); !slices.Equal(got, want) {
			t.Fatalf("reopen %d: List = %v, want %v", i, got, want)
		}
		if i == 0 {
			if v, err := s.Create(context.Background(), Spec{Pool: "crowd"}); err != nil || v.ID != "t100000001" {
				t.Fatalf("next create %q (err %v), want t100000001", v.ID, err)
			}
		}
	}
	defer s.Close() //nolint:errcheck
	if _, err := s.Get("t100000001"); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesCorruptTaskNumbers: a log or snapshot that passes its
// CRC checks but names task numbers the store never writes fails Open
// with an error naming the record or section: a create that reuses a
// number or lands below the table's first chunk, a snapshot task at or
// past its header's next number or out of sequence order, and a number
// far past the last one placed.
func TestOpenRefusesCorruptTaskNumbers(t *testing.T) {
	const far = 1 << 62
	clk := newFakeClock()
	ctx := context.Background()

	// One task in a log, and the same task in a snapshot.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, Spec{Pool: "crowd"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	records, _, err := readWAL(walFile(dir, 0))
	if err != nil || len(records) != 2 {
		t.Fatalf("%d records (err %v), want a pool put and a create", len(records), err)
	}
	put, create := records[0].payload, records[1].payload
	createAt := func(seq uint64) []byte {
		rec, err := decodeRecord(create, newInternTable())
		if err != nil {
			t.Fatal(err)
		}
		rec.Seq = seq
		b, err := encodeRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	snapDir := t.TempDir()
	s, err = Open(Config{Dir: snapDir, Sync: SyncOff, Now: clk.now, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, Spec{Pool: "crowd"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sections := snapshotSections(t, snapDir)
	if len(sections) != 4 || sections[2].kind != secTask {
		t.Fatalf("snapshot sections %d, want header, pool, task, trailer", len(sections))
	}
	header := func(next uint64) []byte {
		h := sections[0].header
		h.nextTask = next
		return appendHeaderSection(nil, &h)
	}
	pool := appendPoolSection(nil, sections[1].pool)
	task := func(id string) []byte {
		sec := sections[2]
		sec.task.id = id
		return appendTaskSection(nil, sec.task, sec.pinned)
	}
	trailer := func(tasks uint64) []byte {
		return appendTrailerSection(nil, snapCounts{pools: 1, tasks: tasks})
	}

	for _, tc := range []struct {
		name     string
		snapshot [][]byte // nil: no snapshot, the log is epoch 0's
		log      [][]byte
		want     string
	}{
		{"create reuses a number", nil,
			[][]byte{put, create, create}, "task_create record: task number 0 reused"},
		{"create far past the last", nil,
			[][]byte{put, create, createAt(far)}, "task_create record: task number 4611686018427387904 outside [0, 1048577)"},
		{"create below the first chunk", [][]byte{header(taskChunkSize + 1), pool, task(taskID(taskChunkSize)), trailer(1)},
			[][]byte{createAt(0)}, "task_create record: task number 0 outside [1024, 1049601)"},
		{"snapshot task at the header's next number", [][]byte{header(0), pool, task("t00000000"), trailer(1)},
			nil, "task t00000000 at or past the header's next number 0"},
		{"snapshot tasks out of sequence order", [][]byte{header(2), pool, task("t00000001"), task("t00000000"), trailer(2)},
			nil, "task t00000000 out of sequence order"},
		{"snapshot task far past the last", [][]byte{header(far + 1), pool, task("t00000000"), task(taskID(far)), trailer(2)},
			nil, "task t4611686018427387904: task number 4611686018427387904 outside [0, 1048577)"},
		{"snapshot header far past its last task", [][]byte{header(far), pool, task("t00000000"), trailer(1)},
			nil, "header's next task number: task number 4611686018427387904 outside [0, 1048577)"},
		{"snapshot task ID taskID does not render", [][]byte{header(2), pool, task("t000000001"), trailer(1)},
			nil, `task ID "t000000001" is not one the store renders`},
	} {
		dir := t.TempDir()
		epoch := uint64(0)
		if tc.snapshot != nil {
			epoch = 1
			if err := os.WriteFile(filepath.Join(dir, snapshotFileName), frameSnapshot(t, tc.snapshot), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		writeLog(t, walFile(dir, epoch), tc.log)
		s, err := Open(Config{Dir: dir, Sync: SyncOff, Now: clk.now})
		if err == nil {
			s.Close() //nolint:errcheck
			t.Errorf("%s: Open succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Open error %q, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLookupAnswersOnlyRenderedIDs: only the IDs taskID renders name a
// task; another spelling of an existing task's number does not.
func TestLookupAnswersOnlyRenderedIDs(t *testing.T) {
	s, _ := newTestStore(t, 20)
	ctx := context.Background()
	for range 2 {
		if _, err := s.Create(ctx, Spec{Pool: "crowd"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("t00000001"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"t1", "t000000001", "t+0000000", "x00000000", "", "t0000000a", "t00000002", "t99999999999999999999"} {
		if _, err := s.Get(id); !errors.Is(err, ErrTaskNotFound) {
			t.Errorf("Get(%q) = %v, want ErrTaskNotFound", id, err)
		}
		if _, err := s.Vote(ctx, id, "j000", true); !errors.Is(err, ErrTaskNotFound) {
			t.Errorf("Vote(%q) = %v, want ErrTaskNotFound", id, err)
		}
	}
}

// TestTableConcurrentCreates creates tasks from several goroutines
// across chunk boundaries while a reader walks and looks them up: the
// walk stays in sequence order, every listed task resolves, and in the
// end each number holds its task.
func TestTableConcurrentCreates(t *testing.T) {
	const goroutines, perG = 4, taskChunkSize * 3 / 4
	s, _ := newTestStore(t, 5)
	ctx := context.Background()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var last uint64
			for i, v := range s.List("") {
				seq, ok := parseTaskID(v.ID)
				if !ok || i > 0 && seq <= last {
					t.Errorf("List holds %s after t%08d", v.ID, last)
					return
				}
				last = seq
				if _, err := s.Get(v.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var creators sync.WaitGroup
	for range goroutines {
		creators.Add(1)
		go func() {
			defer creators.Done()
			for range perG {
				if _, err := s.Create(ctx, Spec{Pool: "crowd"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	creators.Wait()
	close(stop)
	reader.Wait()
	vs := s.List("")
	if len(vs) != goroutines*perG {
		t.Fatalf("List holds %d tasks, want %d", len(vs), goroutines*perG)
	}
	for i, v := range vs {
		if v.ID != taskID(uint64(i)) {
			t.Fatalf("List[%d] = %s", i, v.ID)
		}
	}
}

// openTasks returns a memory store holding n open tasks, none due for
// the sweeper at the returned instant.
func openTasks(tb testing.TB, n int) (*Store, time.Time) {
	tb.Helper()
	clk := newFakeClock()
	s, err := Open(Config{Now: clk.now})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		tb.Fatal(err)
	}
	for range n {
		if _, err := s.Create(context.Background(), Spec{Pool: "crowd"}); err != nil {
			tb.Fatal(err)
		}
	}
	return s, clk.advance(time.Second)
}

// TestSweepIdleAllocations: a sweep that finds nothing due walks the
// table in place and allocates nothing.
func TestSweepIdleAllocations(t *testing.T) {
	s, now := openTasks(t, 1000)
	var released, expired int
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if released, expired, err = s.Sweep(now); err != nil {
			t.Fatal(err)
		}
	})
	if released != 0 || expired != 0 {
		t.Fatalf("idle sweep released %d and expired %d", released, expired)
	}
	if allocs != 0 {
		t.Fatalf("idle sweep over 1,000 open tasks allocates %.1f/op, want 0", allocs)
	}
}

// TestListSizedToMatches: List reserves room for the tasks its status
// filter matches, not for every task, so listing the decided tasks of a
// store holding only open ones allocates nothing.
func TestListSizedToMatches(t *testing.T) {
	s, _ := openTasks(t, 1000)
	if n := len(s.List(StatusOpen)); n != 1000 {
		t.Fatalf("List(open) = %d tasks, want 1,000", n)
	}
	var got []View
	allocs := testing.AllocsPerRun(20, func() { got = s.List(StatusDecided) })
	if len(got) != 0 {
		t.Fatalf("List(decided) = %d tasks, want none", len(got))
	}
	if allocs != 0 {
		t.Fatalf("List(decided) over 1,000 open tasks allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSweepIdle times the sweeper's scan of 100k open tasks when
// nothing is due: the per-second cost of enforcing juror timeouts.
func BenchmarkSweepIdle(b *testing.B) {
	s, now := openTasks(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := s.Sweep(now); err != nil {
			b.Fatal(err)
		}
	}
}
