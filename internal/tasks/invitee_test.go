package tasks

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// viewJSON renders the task's view as the API serves it.
func viewJSON(t *testing.T, s *Store, id string) string {
	t.Helper()
	v, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInviteTimesKeepTheirZone: an invitee stores its invite time as an
// offset from the task's creation, which carries the instant but renders
// in the creation's zone. An invite in another zone offset, or too far
// from creation for an offset, keeps its exact time instead, and the
// view, a WAL replay and a snapshot restore all render it unchanged.
func TestInviteTimesKeepTheirZone(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Dir: t.TempDir(), Sync: SyncOff, CompactEvery: -1, Now: clk.now}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v, err := s.Create(ctx, Spec{Pool: "crowd", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk.t = clk.t.Add(90 * time.Second)
	if _, err := s.Decline(ctx, v.ID, v.Jurors[0].ID); err != nil { // same zone: an offset
		t.Fatal(err)
	}
	east := clk.t.Add(time.Minute).In(time.FixedZone("", 2*3600+30*60))
	clk.t = east
	if _, err := s.Decline(ctx, v.ID, v.Jurors[1].ID); err != nil {
		t.Fatal(err)
	}
	clk.t = clk.t.AddDate(300, 0, 0) // past the reach of an int64 nanosecond offset
	got, err := s.Decline(ctx, v.ID, v.Jurors[2].ID)
	if err != nil {
		t.Fatal(err)
	}
	n := len(got.Jurors)
	if n != len(v.Jurors)+3 {
		t.Fatalf("%d jurors after three declines, want %d", n, len(v.Jurors)+3)
	}
	for i, want := range []time.Time{v.CreatedAt.Add(90 * time.Second), east, clk.t} {
		at := got.Jurors[n-3+i].InvitedAt
		_, off := at.Zone()
		_, wantOff := want.Zone()
		if !at.Equal(want) || off != wantOff {
			t.Errorf("replacement %d invited at %v, want %v", i, at, want)
		}
	}
	if st := s.lookup(v.ID).cur; len(st.odd) != 2 || st.jurors[n-3].odd || !st.jurors[n-2].odd || !st.jurors[n-1].odd {
		t.Fatalf("odd invite times %v; want the last two replacements' and no other", st.odd)
	}
	live := viewJSON(t, s, v.ID)
	for _, compact := range []bool{false, true} {
		if compact {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		if got := viewJSON(t, s, v.ID); got != live {
			t.Fatalf("after reopening (compacted %v):\n%s\nwant\n%s", compact, got, live)
		}
	}
	s.Close() //nolint:errcheck
}

// TestJurorsOutsideTheCandidateView: an invitee indexes the task's
// candidate view only when the view holds that exact juror. A jury the
// view lacks (a juror missing, or one whose cost moved between
// selection and creation) keeps its own copies, the replacement still
// comes from the view, and after a snapshot restore — which pins open
// tasks to their view again and gives closed ones, which pin none, a
// juror list of their own — every view renders as before.
func TestJurorsOutsideTheCandidateView(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Dir: t.TempDir(), Sync: SyncOff, CompactEvery: -1, Now: clk.now}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	closed, err := s.Create(ctx, Spec{Pool: "crowd", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range closed.Jurors {
		if _, err := s.Vote(ctx, closed.ID, j.ID, true); err != nil {
			t.Fatal(err)
		}
	}

	p, _ := s.Pools().Get("crowd")
	c := p.Sorted()
	spec, err := s.normalizeSpec(Spec{Pool: "crowd", TargetConfidence: 1, MaxInvites: 6})
	if err != nil {
		t.Fatal(err)
	}
	rec := record{Type: recTaskCreate, At: clk.now(), Seq: s.nextTask.Load(), Spec: &spec,
		PoolVersion: p.Version, PredictedJER: 0.1, Jury: []recJuror{
			{ID: c[0].ID, ErrorRate: c[0].ErrorRate, Cost: c[0].Cost},
			{ID: "ghost", ErrorRate: 0.25, Cost: 0.5},
			{ID: c[1].ID, ErrorRate: c[1].ErrorRate, Cost: c[1].Cost + 1},
		}}
	tk := s.applyCreate(&rec, c)
	publish(tk)
	if len(tk.extra) != 2 || tk.cur.jurors[0].juror != 0 {
		t.Fatalf("extra %v, first invitee at %d; want ghost and the moved juror in extra, the first at 0", tk.extra, tk.cur.jurors[0].juror)
	}
	v, err := s.Get(tk.id)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range rec.Jury {
		if got := v.Jurors[i]; got.ID != j.ID || got.ErrorRate != j.ErrorRate || got.Cost != j.Cost {
			t.Errorf("juror %d renders as %+v, want %+v", i, got, j)
		}
	}
	after, err := s.Decline(ctx, tk.id, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	// c[1]'s ID is on the task already, under its old cost.
	if repl := after.Jurors[len(after.Jurors)-1]; repl.ID != c[2].ID {
		t.Fatalf("replacement %s, want %s", repl.ID, c[2].ID)
	}

	live := map[string]string{closed.ID: viewJSON(t, s, closed.ID), tk.id: viewJSON(t, s, tk.id)}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	for id, want := range live {
		if got := viewJSON(t, s, id); got != want {
			t.Errorf("%s after a snapshot restore:\n%s\nwant\n%s", id, got, want)
		}
	}
	if r := s.lookup(closed.ID); r.candidates != nil || len(r.extra) != len(closed.Jurors) {
		t.Errorf("restored closed task: %d candidates, %d own jurors; want none and %d", len(r.candidates), len(r.extra), len(closed.Jurors))
	}
	if r := s.lookup(tk.id); len(r.candidates) != len(c) || len(r.extra) != 2 {
		t.Errorf("restored open task: %d candidates, %d own jurors; want %d and 2", len(r.candidates), len(r.extra), len(c))
	}
}
