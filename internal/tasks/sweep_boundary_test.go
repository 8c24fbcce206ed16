package tasks

import (
	"bytes"
	"context"
	"testing"
	"time"

	"juryselect/jury"
)

// The sweep's wall-clock comparisons are inclusive: a juror is released
// and a task expires at the exact deadline instant, not one tick after.
// These tests pin that boundary, the interaction between a timeout
// cascade and task closure inside a single sweep, and the precedence
// rule when both deadlines land on the same instant — including that
// WAL replay reproduces the tie-broken state byte-for-byte.

func TestSweepReleasesJurorExactlyAtTimeout(t *testing.T) {
	s, clk := newTestStore(t, 30)
	v, err := s.Create(context.Background(), Spec{Pool: "crowd", JurorTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	jurySize := len(v.Jurors)

	// One nanosecond before the deadline nothing moves.
	released, expired, err := s.Sweep(clk.advance(time.Minute - time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if released != 0 || expired != 0 {
		t.Fatalf("sweep at timeout-1ns released %d, expired %d; want 0, 0", released, expired)
	}

	// At the exact instant every invited juror is overdue (inclusive
	// boundary) and each release invites a replacement while candidates
	// last (the 30-juror pool has 30-jurySize uninvited left).
	at := clk.advance(time.Nanosecond)
	released, expired, err = s.Sweep(at)
	if err != nil {
		t.Fatal(err)
	}
	if released != jurySize || expired != 0 {
		t.Fatalf("sweep at exact timeout released %d, expired %d; want %d, 0", released, expired, jurySize)
	}
	after, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	timedOut, replaced := 0, 0
	for _, j := range after.Jurors {
		switch j.State {
		case JurorTimedOut:
			timedOut++
		case JurorInvited:
			if !j.InvitedAt.Equal(at) {
				t.Fatalf("replacement %q invited at %v, want sweep instant %v", j.ID, j.InvitedAt, at)
			}
			replaced++
		}
	}
	wantReplaced := min(jurySize, 30-jurySize)
	if timedOut != jurySize || replaced != wantReplaced {
		t.Fatalf("timed out %d, replaced %d; want %d, %d", timedOut, replaced, jurySize, wantReplaced)
	}
}

func TestSweepExpiresTaskExactlyAtDeadline(t *testing.T) {
	s, clk := newTestStore(t, 30)
	v, err := s.Create(context.Background(), Spec{Pool: "crowd", ExpiresIn: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sweep(clk.advance(time.Hour - time.Nanosecond)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(v.ID); got.Status.closed() {
		t.Fatalf("task closed one tick before expiry: %v", got.Status)
	}
	_, expired, err := s.Sweep(clk.advance(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if expired != 1 {
		t.Fatalf("sweep at exact expiry expired %d tasks, want 1", expired)
	}
	got, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusExpired || got.Verdict != nil {
		t.Fatalf("status %v verdict %+v, want expired undecided", got.Status, got.Verdict)
	}
}

// TestSweepTimeoutCascadeClosesTaskInSameSweep drives the jury of a
// replacement-starved task (the jury IS the whole candidate set) past
// the timeout: the final release of the sweep finds no replacement and
// zero pending jurors, so the same sweep that times the jurors out also
// closes the task — without a recExpire record.
func TestSweepTimeoutCascadeClosesTaskInSameSweep(t *testing.T) {
	s, clk := newTestStore(t, 3)
	// Three equally strong jurors: the 3-jury majority JER (~0.028)
	// beats any single juror (0.1), so selection invites the whole pool
	// and releases can never find a replacement.
	if _, err := s.PutPool("trio", []jury.Juror{
		{ID: "a", ErrorRate: 0.1, Cost: 1}, {ID: "b", ErrorRate: 0.1, Cost: 1},
		{ID: "c", ErrorRate: 0.1, Cost: 1},
	}); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create(context.Background(), Spec{Pool: "trio", JurorTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Jurors) != 3 {
		t.Fatalf("jury of %d from a 3-juror pool, want all 3", len(v.Jurors))
	}
	released, expired, err := s.Sweep(clk.advance(30 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The closure happens inside applyDecline's closeCheck, so the
	// sweep's own expiry counter stays zero.
	if released != 3 || expired != 0 {
		t.Fatalf("released %d, expired %d; want 3, 0", released, expired)
	}
	got, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusExpired {
		t.Fatalf("status %v, want expired (jury exhausted with no votes)", got.Status)
	}
	for _, j := range got.Jurors {
		if j.State != JurorTimedOut {
			t.Fatalf("juror %q state %v, want timed out", j.ID, j.State)
		}
	}
}

// TestSweepExpiryWinsTimeoutTie pins the precedence rule: when the task
// expiry and the juror timeout land on the same instant, the sweep
// expires the task and does NOT release jurors — their states stay
// JurorInvited under an expired task, and WAL replay reproduces that
// exact state byte-for-byte.
func TestSweepExpiryWinsTimeoutTie(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(Config{Dir: dir, Sync: SyncBatch, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create(context.Background(), Spec{Pool: "crowd",
		JurorTimeout: 10 * time.Second, ExpiresIn: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	released, expired, err := s.Sweep(clk.advance(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if released != 0 || expired != 1 {
		t.Fatalf("tie sweep released %d, expired %d; want 0, 1 (expiry wins)", released, expired)
	}
	got, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusExpired {
		t.Fatalf("status %v, want expired", got.Status)
	}
	for _, j := range got.Jurors {
		if j.State != JurorInvited {
			t.Fatalf("juror %q state %v, want still invited (expiry preempts release)", j.ID, j.State)
		}
	}

	before := storeFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir, Sync: SyncBatch, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if after := storeFingerprint(t, s2); !bytes.Equal(before, after) {
		t.Fatalf("replay diverged on the tie:\nbefore: %s\nafter:  %s", before, after)
	}
}

func TestSweepProgressCounters(t *testing.T) {
	s, clk := newTestStore(t, 30)
	if p := s.SweepProgress(); p.Sweeps != 0 || !p.LastSweepAt.IsZero() {
		t.Fatalf("fresh store progress = %+v", p)
	}
	v, err := s.Create(context.Background(), Spec{Pool: "crowd",
		JurorTimeout: time.Minute, ExpiresIn: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	jurySize := len(v.Jurors)
	at := clk.advance(time.Minute)
	if _, _, err := s.Sweep(at); err != nil {
		t.Fatal(err)
	}
	p := s.SweepProgress()
	if p.Sweeps != 1 || !p.LastSweepAt.Equal(at) {
		t.Fatalf("progress after first sweep = %+v", p)
	}
	if p.Released != int64(jurySize) || p.Expired != 0 {
		t.Fatalf("released %d, expired %d; want %d, 0", p.Released, p.Expired, jurySize)
	}
	at = clk.advance(time.Hour)
	if _, _, err := s.Sweep(at); err != nil {
		t.Fatal(err)
	}
	p = s.SweepProgress()
	if p.Sweeps != 2 || p.Expired != 1 || !p.LastSweepAt.Equal(at) {
		t.Fatalf("progress after expiry sweep = %+v", p)
	}
}

func TestStalledInvites(t *testing.T) {
	s, clk := newTestStore(t, 30)
	if _, err := s.Create(context.Background(), Spec{Pool: "crowd", JurorTimeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	grace := 30 * time.Second

	// Within timeout+grace nothing is stalled — an overdue juror inside
	// the grace window is the sweeper's normal cadence, not a stall.
	if n, _ := s.StalledInvites(clk.advance(time.Minute+grace-time.Nanosecond), grace); n != 0 {
		t.Fatalf("stalled tasks inside grace = %d, want 0", n)
	}
	now := clk.advance(10 * time.Second)
	n, oldest := s.StalledInvites(now, grace)
	if n != 1 {
		t.Fatalf("stalled tasks past grace = %d, want 1", n)
	}
	if want := 10*time.Second - time.Nanosecond; oldest != want {
		t.Fatalf("oldest overdue = %v, want %v", oldest, want)
	}

	// A sweep releases the overdue jurors; the replacements restart the
	// timeout clock and the stall clears.
	if _, _, err := s.Sweep(now); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.StalledInvites(now, grace); n != 0 {
		t.Fatalf("stalled tasks after sweep = %d, want 0", n)
	}
}
