package insight

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"juryselect/internal/tasks"
	"juryselect/jury"
)

// fakeClock is a settable deterministic clock shared by test goroutines.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func crowd(n int) []jury.Juror {
	out := make([]jury.Juror, n)
	for i := range out {
		out[i] = jury.Juror{
			ID:        fmt.Sprintf("j%03d", i),
			ErrorRate: 0.1 + 0.3*float64(i)/float64(n),
			Cost:      0.1 + float64(i%5)*0.1,
		}
	}
	return out
}

// driveTasks runs n tasks at the target confidence to completion
// against the store: seeded pseudo-random votes with occasional
// declines, so the stream exercises creates, invites, votes, releases,
// and both close paths.
func driveTasks(t *testing.T, s *tasks.Store, rng *rand.Rand, n int, target float64) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		v, err := s.Create(ctx, tasks.Spec{Pool: "crowd", TargetConfidence: target})
		if err != nil {
			t.Fatal(err)
		}
		truth := rng.Intn(2) == 0
		for k := 0; k < len(v.Jurors); k++ {
			cur, err := s.Get(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Status != tasks.StatusOpen && cur.Status != tasks.StatusAwaitingVotes {
				break
			}
			var juror *tasks.JurorView
			for idx := range cur.Jurors {
				if cur.Jurors[idx].State == tasks.JurorInvited {
					juror = &cur.Jurors[idx]
					break
				}
			}
			if juror == nil {
				break
			}
			if rng.Float64() < 0.15 {
				if _, err := s.Decline(ctx, v.ID, juror.ID); err != nil {
					t.Fatal(err)
				}
				continue
			}
			vote := truth
			if rng.Float64() < juror.ErrorRate {
				vote = !vote
			}
			if _, err := s.Vote(ctx, v.ID, juror.ID, vote); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// openStore opens a durable store over dir with a fresh insight engine
// attached before recovery, so WAL replay streams into it.
func openStore(t *testing.T, dir string, clk *fakeClock) (*tasks.Store, *Engine) {
	t.Helper()
	eng := New(0)
	s, err := tasks.Open(tasks.Config{
		Dir: dir, Sync: tasks.SyncOff, Now: clk.now,
		CompactEvery: -1, Events: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// TestRestartMidStreamBitIdentical is the tentpole guarantee: an engine
// that live-tailed the event stream and an engine rebuilt purely by WAL
// replay render bit-identical snapshots — including when the store is
// killed and reopened mid-stream, twice.
func TestRestartMidStreamBitIdentical(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	rng := rand.New(rand.NewSource(42))

	s, live := openStore(t, dir, clk)
	if _, err := s.PutPool("crowd", crowd(25)); err != nil {
		t.Fatal(err)
	}
	driveTasks(t, s, rng, 8, 0.9)
	fp1 := live.Snapshot().Fingerprint
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 1: replay must land exactly where the live tail was.
	s2, replayed := openStore(t, dir, clk)
	if got := replayed.Snapshot().Fingerprint; got != fp1 {
		t.Fatalf("replay fingerprint %s != live %s", got, fp1)
	}

	// Continue on the recovered store: the replayed engine now live-tails.
	driveTasks(t, s2, rng, 8, 0.9)
	fp2 := replayed.Snapshot().Fingerprint
	if fp2 == fp1 {
		t.Fatal("fingerprint unchanged after more traffic")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 2: full cold replay of both phases matches the mixed
	// replay-then-live engine.
	s3, cold := openStore(t, dir, clk)
	defer s3.Close()
	snap := cold.Snapshot()
	if snap.Fingerprint != fp2 {
		t.Fatalf("cold replay fingerprint %s != live %s", snap.Fingerprint, fp2)
	}
	if snap.TasksCreated != 16 || snap.TasksDecided+snap.TasksExpired+int64(snap.TasksOpen) != 16 {
		t.Fatalf("task accounting off: %+v", snap)
	}
	if snap.Votes == 0 || len(snap.Jurors) == 0 {
		t.Fatalf("empty stream: %+v", snap)
	}
	if snap.Calibration.Overall.Total != snap.TasksDecided {
		t.Fatalf("calibration samples %d != decided %d",
			snap.Calibration.Overall.Total, snap.TasksDecided)
	}
}

// TestLiveConcurrentMatchesReplay drives concurrent writers at the live
// store (arbitrary cross-task interleaving into the engine) and checks
// the replayed engine still fingerprints identically — the
// order-invariance property, under -race.
func TestLiveConcurrentMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()

	s, live := openStore(t, dir, clk)
	if _, err := s.PutPool("crowd", crowd(40)); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < 5; i++ {
				v, err := s.Create(ctx, tasks.Spec{Pool: "crowd"})
				if err != nil {
					t.Error(err)
					return
				}
				truth := rng.Intn(2) == 0
				for _, j := range v.Jurors {
					vote := truth
					if rng.Float64() < j.ErrorRate {
						vote = !vote
					}
					if _, err := s.Vote(ctx, v.ID, j.ID, vote); err != nil {
						break // task closed early under a racing vote
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	fp := live.Snapshot().Fingerprint
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, replayed := openStore(t, dir, clk)
	defer s2.Close()
	if got := replayed.Snapshot().Fingerprint; got != fp {
		t.Fatalf("concurrent live fingerprint %s != replay %s", fp, got)
	}
}

// TestSweepEventsReplayIdentically covers the timeout/expiry paths:
// juror timeouts journal as declines and expiry closes without a
// verdict, and both replay into identical insight state.
func TestSweepEventsReplayIdentically(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()

	s, live := openStore(t, dir, clk)
	if _, err := s.PutPool("crowd", crowd(9)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Create(ctx, tasks.Spec{
		Pool: "crowd", JurorTimeout: time.Minute, ExpiresIn: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	clk.mu.Lock()
	clk.t = clk.t.Add(2 * time.Hour) // past juror timeout and task expiry
	sweepAt := clk.t
	clk.mu.Unlock()
	released, expired, err := s.Sweep(sweepAt)
	if err != nil {
		t.Fatal(err)
	}
	if released == 0 && expired == 0 {
		t.Fatal("sweep did nothing")
	}
	snap := live.Snapshot()
	if snap.Timeouts != int64(released) || snap.TasksExpired != int64(expired) {
		t.Fatalf("sweep accounting: released=%d expired=%d snap=%+v", released, expired, snap)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, replayed := openStore(t, dir, clk)
	defer s2.Close()
	if got := replayed.Snapshot().Fingerprint; got != snap.Fingerprint {
		t.Fatalf("sweep replay fingerprint %s != live %s", got, snap.Fingerprint)
	}
}

// synthetic event helpers for engine-level tests (no store needed).

func evCreate(task string, jury ...tasks.EventJuror) tasks.Event {
	return tasks.Event{Type: tasks.EvTaskCreated, Task: task,
		Strategy: "altr", PredictedJER: 0.12, Jury: jury}
}

func evVote(task, juror string, yes bool) tasks.Event {
	return tasks.Event{Type: tasks.EvVoteRecorded, Task: task, Juror: juror,
		ErrorRate: 0.2, Vote: yes, LatencyNS: 5e6}
}

func evClose(task string, answer bool, conf float64) tasks.Event {
	return tasks.Event{Type: tasks.EvTaskClosed, Task: task,
		Decided: true, Answer: answer, Confidence: conf}
}

// TestUnknownTaskEventsTolerated models the compaction horizon: events
// for a task whose TaskCreated was folded into a snapshot still update
// juror counters but contribute no calibration or agreement samples.
func TestUnknownTaskEventsTolerated(t *testing.T) {
	e := New(0)
	e.TaskEvent(evVote("ghost", "a", true))
	e.TaskEvent(tasks.Event{Type: tasks.EvJurorReleased, Task: "ghost", Juror: "b", ErrorRate: 0.3})
	e.TaskEvent(evClose("ghost", true, 0.95))
	s := e.Snapshot()
	if s.UnknownTaskEvents != 3 {
		t.Fatalf("unknown events %d, want 3", s.UnknownTaskEvents)
	}
	if len(s.Jurors) != 2 || s.Jurors[0].Votes != 1 || s.Jurors[1].Declines != 1 {
		t.Fatalf("juror counters not updated: %+v", s.Jurors)
	}
	if s.Calibration.Overall.Total != 0 || s.Agreement.TrackedPairs != 0 {
		t.Fatal("unknown task leaked into calibration/agreement")
	}
}

// TestAgreementZScore checks the independence baseline: a pair that
// always agrees scores a large positive z, and the expected agreement
// derives from the global yes-rate marginals.
func TestAgreementZScore(t *testing.T) {
	e := New(0)
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("t%02d", i)
		yes := i%2 == 0 // both jurors split 50/50 globally but always match
		e.TaskEvent(evCreate(id,
			tasks.EventJuror{ID: "a", ErrorRate: 0.2},
			tasks.EventJuror{ID: "b", ErrorRate: 0.2}))
		e.TaskEvent(evVote(id, "a", yes))
		e.TaskEvent(evVote(id, "b", yes))
		e.TaskEvent(evClose(id, yes, 0.92))
	}
	rep := e.Snapshot().Agreement
	if rep.TrackedPairs != 1 {
		t.Fatalf("pairs %d, want 1", rep.TrackedPairs)
	}
	p := rep.Pairs[0]
	if p.CoVotes != 40 || p.Agreements != 40 || p.Rate != 1 {
		t.Fatalf("pair = %+v", p)
	}
	if math.Abs(p.Expected-0.5) > 1e-12 {
		t.Fatalf("expected agreement %g, want 0.5", p.Expected)
	}
	// (40 - 40*0.5)/sqrt(40*0.25) = 20/sqrt(10)
	if want := 20 / math.Sqrt(10); math.Abs(p.Z-want) > 1e-9 {
		t.Fatalf("z = %g, want %g", p.Z, want)
	}
}

// TestPairCapDropsNewPairs bounds the tracker: once the cap is reached,
// new pairs are counted as dropped, existing pairs keep accumulating.
func TestPairCapDropsNewPairs(t *testing.T) {
	e := New(1)
	mk := func(id, a, b string) {
		e.TaskEvent(evCreate(id,
			tasks.EventJuror{ID: a, ErrorRate: 0.2},
			tasks.EventJuror{ID: b, ErrorRate: 0.2}))
		e.TaskEvent(evVote(id, a, true))
		e.TaskEvent(evVote(id, b, true))
		e.TaskEvent(evClose(id, true, 0.92))
	}
	mk("t1", "a", "b")
	mk("t2", "c", "d") // over cap: dropped
	mk("t3", "a", "b") // existing pair still accumulates
	rep := e.Snapshot().Agreement
	if rep.TrackedPairs != 1 || rep.DroppedPairs != 1 {
		t.Fatalf("tracked=%d dropped=%d", rep.TrackedPairs, rep.DroppedPairs)
	}
	if rep.Pairs[0].CoVotes != 2 {
		t.Fatalf("co-votes %d, want 2", rep.Pairs[0].CoVotes)
	}
}

// TestJurorProfileDerivations pins the derived fields: response rate,
// mean pinned ε, and the Beta-posterior realized rate.
func TestJurorProfileDerivations(t *testing.T) {
	e := New(0)
	// Juror votes wrong once out of two judged tasks, declines once.
	for i, yes := range []bool{true, false} {
		id := fmt.Sprintf("t%d", i)
		e.TaskEvent(evCreate(id, tasks.EventJuror{ID: "a", ErrorRate: 0.2}))
		e.TaskEvent(evVote(id, "a", yes))
		e.TaskEvent(evClose(id, true, 0.9)) // answer true: the false vote is wrong
	}
	e.TaskEvent(evCreate("t9", tasks.EventJuror{ID: "a", ErrorRate: 0.2}))
	e.TaskEvent(tasks.Event{Type: tasks.EvJurorReleased, Task: "t9", Juror: "a", ErrorRate: 0.2})
	p := e.Snapshot().Jurors[0]
	if p.Judged != 2 || p.Wrong != 1 {
		t.Fatalf("judged=%d wrong=%d", p.Judged, p.Wrong)
	}
	if want := 2.0 / 3.0; math.Abs(p.ResponseRate-want) > 1e-12 {
		t.Fatalf("response rate %g, want %g", p.ResponseRate, want)
	}
	if math.Abs(p.PoolEps-0.2) > 1e-9 {
		t.Fatalf("pool eps %g, want 0.2", p.PoolEps)
	}
	// Beta posterior: (0.2*10 + 1) / (10 + 2) = 0.25.
	if want := 0.25; math.Abs(p.RealizedRate-want) > 1e-9 {
		t.Fatalf("realized rate %g, want %g", p.RealizedRate, want)
	}
	if p.Latency.Count != 2 || p.Latency.MaxNS != 5e6 {
		t.Fatalf("latency = %+v", p.Latency)
	}
}

// TestReliabilityOrderInvariance feeds the same sample multiset in two
// orders (and via a sharded merge) and requires identical reports.
func TestReliabilityOrderInvariance(t *testing.T) {
	samples := make([][2]float64, 0, 200)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		samples = append(samples, [2]float64{rng.Float64() * 0.6, rng.Float64()})
	}
	var fwd, rev Reliability
	var shards [4]Reliability
	for i, sm := range samples {
		fwd.Add(sm[0], sm[1])
		shards[i%4].Add(sm[0], sm[1])
	}
	for i := len(samples) - 1; i >= 0; i-- {
		rev.Add(samples[i][0], samples[i][1])
	}
	var merged Reliability
	for i := 3; i >= 0; i-- { // merge in reverse shard order too
		merged.Merge(&shards[i])
	}
	if fwd != rev || fwd != merged {
		t.Fatal("reliability state depends on sample order")
	}
	rep := fwd.Report()
	if rep.Total != 200 || rep.Brier <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	for i := 1; i < len(rep.Bins); i++ {
		if rep.Bins[i].Lo < rep.Bins[i-1].Hi {
			t.Fatal("bins out of order")
		}
	}
}

// TestReliabilityClamping: out-of-range predictions land in the edge
// bins instead of panicking or vanishing.
func TestReliabilityClamping(t *testing.T) {
	var r Reliability
	r.Add(-0.1, 0)
	r.Add(0.99, 1)
	rep := r.Report()
	if rep.Total != 2 || len(rep.Bins) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Bins[0].Lo != 0 || rep.Bins[1].Hi != 0.5 {
		t.Fatalf("edge bins = %+v", rep.Bins)
	}
}
