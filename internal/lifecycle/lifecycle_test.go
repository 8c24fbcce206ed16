package lifecycle_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"testing"
	"time"

	"juryselect/internal/insight"
	"juryselect/internal/lifecycle"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// testClock is a settable deterministic clock.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time                    { return c.t }
func (c *testClock) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

func testCrowd(n int) []jury.Juror {
	out := make([]jury.Juror, n)
	for i := range out {
		out[i] = jury.Juror{
			ID:        fmt.Sprintf("j%03d", i),
			ErrorRate: 0.1 + 0.35*float64(i)/float64(n),
			Cost:      0.1 + float64(i%5)*0.1,
		}
	}
	return out
}

func openStore(t *testing.T, dir string, clk *testClock, eng *lifecycle.Engine) *tasks.Store {
	t.Helper()
	s, err := tasks.Open(tasks.Config{
		Dir: dir, Now: clk.now, Events: eng,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveWorkload runs a mixed lifecycle workload: a decided task (votes
// with latency), a declined juror with replacement, a timeout sweep,
// and an expiry.
func driveWorkload(t *testing.T, s *tasks.Store, clk *testClock) (decidedID string) {
	t.Helper()
	ctx := context.Background()
	if _, err := s.PutPool("crowd", testCrowd(25)); err != nil {
		t.Fatal(err)
	}

	v0, err := s.Create(ctx, tasks.Spec{Pool: "crowd", Question: "sky blue?"})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range v0.Jurors {
		clk.advance(2 * time.Second)
		view, err := s.Vote(ctx, v0.ID, j.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if view.Status == tasks.StatusDecided {
			break
		}
	}

	clk.advance(3 * time.Second)
	v1, err := s.Create(ctx, tasks.Spec{Pool: "crowd", TargetConfidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vote(ctx, v1.ID, v1.Jurors[0].ID, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decline(ctx, v1.ID, v1.Jurors[1].ID); err != nil {
		t.Fatal(err)
	}

	clk.advance(time.Second)
	if _, err := s.Create(ctx, tasks.Spec{Pool: "crowd", JurorTimeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(clk.advance(15 * time.Second)); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Create(ctx, tasks.Spec{Pool: "crowd", ExpiresIn: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(clk.advance(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	return v0.ID
}

func TestTimelineRendersFullLife(t *testing.T) {
	eng := lifecycle.New(0)
	clk := newTestClock()
	s := openStore(t, "", clk, eng)
	created := clk.now()
	decidedID := driveWorkload(t, s, clk)

	tl, ok := eng.Timeline(decidedID)
	if !ok {
		t.Fatalf("no timeline for %s", decidedID)
	}
	if tl.Task != decidedID || tl.Outcome != "decided" {
		t.Fatalf("timeline = %s/%s, want %s/decided", tl.Task, tl.Outcome, decidedID)
	}
	if tl.PoolVersion != 1 {
		t.Fatalf("pool version %d, want 1 (pinned at create)", tl.PoolVersion)
	}
	if tl.Answer == nil || !*tl.Answer {
		t.Fatalf("answer %v, want yes", tl.Answer)
	}
	if tl.Fingerprint == "" {
		t.Fatal("empty fingerprint")
	}
	if tl.Spans[0].Kind != "create" || !tl.Spans[0].At.Equal(created) {
		t.Fatalf("first span = %+v", tl.Spans[0])
	}
	last := tl.Spans[len(tl.Spans)-1]
	if last.Kind != "close" || last.DurationNS != tl.TimeToVerdictNS {
		t.Fatalf("last span = %+v, ttv %d", last, tl.TimeToVerdictNS)
	}
	if tl.TimeToFirstVoteNS != (2 * time.Second).Nanoseconds() {
		t.Fatalf("time to first vote %d, want 2s", tl.TimeToFirstVoteNS)
	}
	votes := 0
	for _, sp := range tl.Spans {
		if sp.Kind == "vote" {
			votes++
			if sp.Vote == nil || !*sp.Vote {
				t.Fatalf("vote span without yes vote: %+v", sp)
			}
			if sp.DurationNS != sp.SinceCreateNS {
				// Initial jury invited at creation: invite→vote latency
				// equals offset from creation.
				t.Fatalf("vote latency %d != since-create %d", sp.DurationNS, sp.SinceCreateNS)
			}
		}
	}
	if votes != tl.Votes || votes == 0 {
		t.Fatalf("vote spans %d, header says %d", votes, tl.Votes)
	}

	if _, ok := eng.Timeline("t99999999"); ok {
		t.Fatal("timeline for unknown task")
	}
}

func TestTimelineTimeoutAndExpiryDurations(t *testing.T) {
	eng := lifecycle.New(0)
	clk := newTestClock()
	s := openStore(t, "", clk, eng)
	if _, err := s.PutPool("crowd", testCrowd(25)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create(context.Background(), tasks.Spec{Pool: "crowd", JurorTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(clk.advance(15 * time.Second)); err != nil {
		t.Fatal(err)
	}
	tl, ok := eng.Timeline(v.ID)
	if !ok {
		t.Fatal("no timeline")
	}
	if tl.Timeouts != len(v.Jurors) {
		t.Fatalf("timeouts %d, want %d", tl.Timeouts, len(v.Jurors))
	}
	for _, sp := range tl.Spans {
		switch sp.Kind {
		case "timeout":
			// Released 15s after the creation-time invitation.
			if sp.DurationNS != (15 * time.Second).Nanoseconds() {
				t.Fatalf("timeout span duration %d, want 15s", sp.DurationNS)
			}
		case "invite":
			if sp.DurationNS != 0 {
				t.Fatalf("invite span duration %d, want 0", sp.DurationNS)
			}
		}
	}
	// Every release invites a replacement while uninvited candidates
	// remain; the 25-juror pool caps the total.
	wantInvites := len(v.Jurors) + min(len(v.Jurors), 25-len(v.Jurors))
	if tl.Invites != wantInvites {
		t.Fatalf("invites %d, want %d", tl.Invites, wantInvites)
	}
}

// TestReplayBitIdentity is the tentpole property: a fresh engine fed by
// WAL replay renders every timeline and the aggregate snapshot
// byte-identically to the live engine that watched the same history.
func TestReplayBitIdentity(t *testing.T) {
	dir := t.TempDir()
	live := lifecycle.New(0)
	clk := newTestClock()
	s := openStore(t, dir, clk, live)
	driveWorkload(t, s, clk)
	ids := make([]string, 0)
	for _, v := range s.List("") {
		ids = append(ids, v.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cold := lifecycle.New(0)
	s2 := openStore(t, dir, clk, cold)
	defer s2.Close()

	liveSnap, coldSnap := live.Snapshot(), cold.Snapshot()
	if liveSnap.Fingerprint != coldSnap.Fingerprint {
		lj, _ := json.MarshalIndent(liveSnap, "", " ")
		cj, _ := json.MarshalIndent(coldSnap, "", " ")
		t.Fatalf("engine fingerprints diverge:\nlive: %s\ncold: %s", lj, cj)
	}
	for _, id := range ids {
		lt, lok := live.Timeline(id)
		ct, cok := cold.Timeline(id)
		if !lok || !cok {
			t.Fatalf("timeline %s: live ok=%v cold ok=%v", id, lok, cok)
		}
		lraw, _ := json.Marshal(lt)
		craw, _ := json.Marshal(ct)
		if !bytes.Equal(lraw, craw) {
			t.Fatalf("timeline %s diverges:\nlive: %s\ncold: %s", id, lraw, craw)
		}
	}
}

// TestReplayFeedsSLOWindows: replaying through a fresh engine backfills
// the attached SLO's windows from journaled close times.
func TestReplayFeedsSLOWindows(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	eng := lifecycle.New(0)
	s := openStore(t, dir, clk, eng)
	driveWorkload(t, s, clk)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	slo := lifecycle.NewSLO([]lifecycle.Objective{
		{Name: "expired", SLI: lifecycle.SLIExpiredRate, Target: 0.99},
	}, lifecycle.DefaultBurnWindows(), clk.now, slog.New(slog.DiscardHandler))
	cold := lifecycle.New(0)
	cold.AttachSLO(slo)
	s2 := openStore(t, dir, clk, cold)
	defer s2.Close()

	status := slo.Evaluate(clk.now())
	if len(status) != 1 {
		t.Fatalf("status rows = %d", len(status))
	}
	// The workload closed decided tasks and at least one expiry; both
	// sides of the ratio must have been backfilled.
	if status[0].Good == 0 || status[0].Bad == 0 {
		t.Fatalf("backfilled totals good=%d bad=%d, want both nonzero", status[0].Good, status[0].Bad)
	}
}

func TestEngineEvictsLowestClosedID(t *testing.T) {
	eng := lifecycle.New(2)
	clk := newTestClock()
	s := openStore(t, "", clk, eng)
	ctx := context.Background()
	if _, err := s.PutPool("crowd", testCrowd(25)); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := s.Create(ctx, tasks.Spec{Pool: "crowd", ExpiresIn: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if _, _, err := s.Sweep(clk.advance(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Timeline(ids[0]); ok {
		t.Fatalf("lowest closed ID %s not evicted at cap 2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := eng.Timeline(id); !ok {
			t.Fatalf("timeline %s evicted, want retained", id)
		}
	}
	st := eng.Stats()
	if st.TimelinesEvicted != 1 || st.TimelinesRetained != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEngineEvictsLowestSequenceNumber closes three tasks whose IDs
// cross the ninth digit. The lowest sequence number goes first, though
// t100000000 sorts first as a string.
func TestEngineEvictsLowestSequenceNumber(t *testing.T) {
	eng := lifecycle.New(2)
	at := newTestClock().now()
	ids := []string{"t99999998", "t99999999", "t100000000"}
	for _, id := range ids {
		eng.TaskEvent(tasks.Event{Type: tasks.EvTaskCreated, Task: id, At: at, Strategy: "altr",
			Jury: []tasks.EventJuror{{ID: "a", ErrorRate: 0.1}}})
		eng.TaskEvent(tasks.Event{Type: tasks.EvTaskClosed, Task: id, At: at.Add(time.Second)})
	}
	if _, ok := eng.Timeline(ids[0]); ok {
		t.Fatalf("lowest sequence number %s not evicted at cap 2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := eng.Timeline(id); !ok {
			t.Fatalf("timeline %s evicted, want retained", id)
		}
	}
}

func TestWatchdogFlagsStallsAndRecovery(t *testing.T) {
	clk := newTestClock()
	s, err := tasks.Open(tasks.Config{Now: clk.now, DefaultJurorTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", testCrowd(25)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(context.Background(), tasks.Spec{Pool: "crowd"}); err != nil {
		t.Fatal(err)
	}
	wd := lifecycle.NewWatchdog(s, 30*time.Second, 10*time.Second)

	rep := wd.Check(clk.now())
	if !rep.Healthy || rep.StalledTasks != 0 {
		t.Fatalf("fresh store report = %+v", rep)
	}

	// Jurors overdue past timeout+grace with zero sweeps: stalled.
	rep = wd.Check(clk.advance(2 * time.Minute))
	if rep.Healthy || rep.StalledTasks != 1 || !rep.SweeperStalled {
		t.Fatalf("stalled report = %+v", rep)
	}
	if rep.OldestOverdueNS <= 0 || rep.LastSweepAgeNS != -1 {
		t.Fatalf("stalled report detail = %+v", rep)
	}

	// A sweep releases the overdue invites and restores health.
	if _, _, err := s.Sweep(clk.now()); err != nil {
		t.Fatal(err)
	}
	rep = wd.Check(clk.now())
	if !rep.Healthy || rep.StalledTasks != 0 || rep.SweeperStalled {
		t.Fatalf("post-sweep report = %+v", rep)
	}
	if rep.Sweeps != 1 || rep.LastSweepAgeNS != 0 {
		t.Fatalf("post-sweep progress = %+v", rep)
	}

	// Sweeper silence past the allowance re-raises the flag even with
	// nothing overdue... but fresh replacements come due again too.
	rep = wd.Check(clk.advance(10 * time.Minute))
	if !rep.SweeperStalled {
		t.Fatalf("silent-sweeper report = %+v", rep)
	}
}

// TestEnginesAgreeOnTotals feeds one seeded random event stream to both
// derived-view engines, at small caps and with tasks neither saw open
// (their creation lies beyond a compaction horizon). The engines must
// report the same totals and unknown-task count, in Stats and Snapshot
// alike, and those must match what the generator emitted.
func TestEnginesAgreeOnTotals(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ins, lce := insight.New(4), lifecycle.New(3)
		at := time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC)
		var events, unknown, invites, open int64
		known := map[string]bool{} // every task still open → seen created
		var ids []string
		emit := func(ev tasks.Event) {
			at = at.Add(time.Duration(1+rng.Intn(5000)) * time.Millisecond)
			ev.At = at
			ins.TaskEvent(ev)
			lce.TaskEvent(ev)
			events++
			if ev.Type != tasks.EvTaskCreated && !known[ev.Task] {
				unknown++
			}
		}
		juror := func() string { return fmt.Sprintf("j%d", rng.Intn(6)) }
		for step := 0; step < 80; step++ {
			if len(ids) == 0 || rng.Float64() < 0.2 {
				id := fmt.Sprintf("t%08d", step)
				ids = append(ids, id)
				if rng.Float64() < 0.3 {
					continue // restored from a snapshot: no TaskCreated
				}
				known[id] = true
				open++
				emit(tasks.Event{Type: tasks.EvTaskCreated, Task: id, Strategy: "altr",
					PredictedJER: rng.Float64() / 2, Jury: []tasks.EventJuror{
						{ID: juror(), ErrorRate: 0.2}, {ID: juror(), ErrorRate: 0.3}}})
				continue
			}
			i := rng.Intn(len(ids))
			id := ids[i]
			switch r := rng.Float64(); {
			case r < 0.15:
				invites++
				emit(tasks.Event{Type: tasks.EvJurorInvited, Task: id, Juror: juror(), ErrorRate: 0.25})
			case r < 0.55:
				emit(tasks.Event{Type: tasks.EvVoteRecorded, Task: id, Juror: juror(), ErrorRate: 0.25,
					Vote: rng.Intn(2) == 0, LatencyNS: rng.Int63n(1e9)})
			case r < 0.75:
				emit(tasks.Event{Type: tasks.EvJurorReleased, Task: id, Juror: juror(), Timeout: rng.Intn(2) == 0})
			default:
				emit(tasks.Event{Type: tasks.EvTaskClosed, Task: id, Decided: rng.Intn(3) > 0,
					Answer: rng.Intn(2) == 0, Confidence: 0.5 + rng.Float64()/2})
				if known[id] {
					open--
				}
				delete(known, id)
				ids = append(ids[:i], ids[i+1:]...) // closed: no further events
			}
		}

		is, ls := ins.Stats(), lce.Stats()
		if is.Totals != ls.Totals || is.UnknownTaskEvents != ls.UnknownTaskEvents {
			t.Fatalf("seed %d: insight %+v/%d, lifecycle %+v/%d", seed,
				is.Totals, is.UnknownTaskEvents, ls.Totals, ls.UnknownTaskEvents)
		}
		if is.Events != events || is.UnknownTaskEvents != unknown || is.TasksOpen != open || ls.Replacements != invites {
			t.Fatalf("seed %d: totals %+v unknown %d replacements %d, emitted %d events (%d unknown, %d invites, %d open)",
				seed, is.Totals, is.UnknownTaskEvents, ls.Replacements, events, unknown, invites, open)
		}
		if s := ins.Snapshot(); s.Totals != is.Totals || s.UnknownTaskEvents != is.UnknownTaskEvents {
			t.Fatalf("seed %d: insight snapshot %+v differs from stats %+v", seed, s.Totals, is.Totals)
		}
		if s := lce.Snapshot(); s.Totals != ls.Totals || s.UnknownTaskEvents != ls.UnknownTaskEvents {
			t.Fatalf("seed %d: lifecycle snapshot %+v differs from stats %+v", seed, s.Totals, ls.Totals)
		}
	}
}
