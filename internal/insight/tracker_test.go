package insight

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"juryselect/internal/tasks"
)

// juryTask returns the events of one decided task whose jury of k
// distinct jurors, drawn from "j0" … "j{n-1}", all vote.
func juryTask(rng *rand.Rand, id string, n, k int) []tasks.Event {
	jury, votes := make([]string, k), make([]bool, k)
	for i, j := range rng.Perm(n)[:k] {
		jury[i], votes[i] = "j"+strconv.Itoa(j), rng.Intn(2) == 0
	}
	return task(id, true, jury, votes...)
}

// fillPairs closes 17-juror juries drawn from an n-juror crowd, the
// size of task-lifecycle's pay juries, until the tracker is full.
func fillPairs(e *Engine, n int, rng *rand.Rand) {
	for i := 0; len(e.pairs) < e.pairCap; i++ {
		for _, ev := range juryTask(rng, "fill"+strconv.Itoa(i), n, 17) {
			e.TaskEvent(ev)
		}
	}
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestInsightRetainedBytes guards the pair tracker's layout: filled to
// DefaultPairCap on a 1,001-juror crowd whose jurors are interned
// before the baseline, it may retain at most 64 B per tracked pair. A
// tracker keyed by two ID strings with a heap object per pair takes
// ~110 B and fails.
func TestInsightRetainedBytes(t *testing.T) {
	const n = 1001
	e := New(0)
	intern := tasks.Event{Type: tasks.EvTaskCreated, Task: "intern"}
	for i := 0; i < n; i++ {
		intern.Jury = append(intern.Jury, tasks.EventJuror{ID: "j" + strconv.Itoa(i), ErrorRate: 0.3})
	}
	e.TaskEvent(intern)
	e.TaskEvent(tasks.Event{Type: tasks.EvTaskClosed, Task: "intern"})
	base := heapAfterGC()
	fillPairs(e, n, rand.New(rand.NewSource(1)))
	all := heapAfterGC()
	runtime.KeepAlive(e)

	if len(e.pairs) != DefaultPairCap || len(e.ids) != n {
		t.Fatalf("%d pairs over %d jurors, want %d over %d", len(e.pairs), len(e.ids), DefaultPairCap, n)
	}
	perPair := (float64(all) - float64(base)) / DefaultPairCap
	t.Logf("%.1f B retained per tracked pair", perPair)
	if perPair > 64 {
		t.Fatalf("the tracker retains %.1f B per pair, want at most 64", perPair)
	}
}

// TestSnapshotWhileVoting renders snapshots while a writer feeds the
// engine votes and verdicts, then checks each snapshot's fingerprint
// against a render, taken with no writer, of an engine fed the stream up
// to that snapshot's event count. Under -race it shows that freeze
// copies a consistent cut and render reads nothing a writer changes.
func TestSnapshotWhileVoting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var evs []tasks.Event
	for i := 0; i < 150; i++ {
		evs = append(evs, juryTask(rng, "t"+strconv.Itoa(i), 60, 2+rng.Intn(12))...)
	}
	const pairCap = 200 // below the stream's distinct pairs, so drops fire too
	e := New(pairCap)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		seen  = make(map[int64]string) // event count → fingerprint
		snaps int
		done  = make(chan struct{})
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := e.Snapshot()
				mu.Lock()
				if fp, ok := seen[s.Events]; ok && fp != s.Fingerprint {
					t.Errorf("two snapshots after %d events differ", s.Events)
				}
				seen[s.Events] = s.Fingerprint
				snaps++
				mu.Unlock()
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	// Writer and readers yield now and then, so snapshots land between
	// events of open tasks on one CPU too.
	for i, ev := range evs {
		e.TaskEvent(ev)
		if i%10 == 0 {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()

	if st := e.Stats(); st.PairsDropped == 0 {
		t.Fatalf("no pair dropped: %+v", st)
	}
	counts := make([]int64, 0, len(seen))
	for n := range seen {
		counts = append(counts, n)
	}
	slices.Sort(counts)
	quiet, fed := New(pairCap), int64(0)
	for _, n := range counts {
		for ; fed < n; fed++ {
			quiet.TaskEvent(evs[fed])
		}
		if want := quiet.Snapshot().Fingerprint; seen[n] != want {
			t.Fatalf("snapshot after %d events has fingerprint %s, a quiet render %s", n, seen[n], want)
		}
	}
	t.Logf("%d snapshots at %d distinct cuts of %d events", snaps, len(counts), len(evs))
}

var benchSnapshot *Snapshot

// BenchmarkInsightSnapshot renders the tracker at the pair cap, filled
// by 17-juror juries from a 1,001-juror crowd (about 880 jurors seen).
// lock-ns/op is the time freeze holds the engine lock, the part of
// ns/op a concurrent TaskEvent can wait for.
func BenchmarkInsightSnapshot(b *testing.B) {
	e := New(0)
	fillPairs(e, 1001, rand.New(rand.NewSource(1)))
	var locked time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		f := e.freeze()
		locked += time.Since(start)
		benchSnapshot = f.render()
	}
	b.ReportMetric(float64(locked.Nanoseconds())/float64(b.N), "lock-ns/op")
}
