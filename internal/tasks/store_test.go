package tasks

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"juryselect/internal/pool"
	"juryselect/jury"
)

// fakeClock is a settable deterministic clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time                    { return c.t }
func (c *fakeClock) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

// crowdJurors is a crowd where the altruistic optimum is a small prefix:
// three strong jurors and a tail of weak ones.
func crowdJurors(n int) []jury.Juror {
	out := make([]jury.Juror, n)
	for i := range out {
		rate := 0.1 + 0.35*float64(i)/float64(n)
		out[i] = jury.Juror{ID: fmt.Sprintf("j%03d", i), ErrorRate: rate, Cost: 0.1 + float64(i%5)*0.1}
	}
	return out
}

// newTestStore builds a memory-only store with a seeded pool and a fake
// clock.
func newTestStore(t *testing.T, n int) (*Store, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	s, err := Open(Config{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(n)); err != nil {
		t.Fatal(err)
	}
	return s, clk
}

func TestCreateSelectsJuryAndRecordsPoolVersion(t *testing.T) {
	s, _ := newTestStore(t, 20)
	v, err := s.Create(context.Background(), Spec{Pool: "crowd"})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "t00000000" || v.Status != StatusOpen {
		t.Fatalf("view = %+v", v)
	}
	if v.PoolVersion != 1 {
		t.Fatalf("pool version %d, want 1", v.PoolVersion)
	}
	if len(v.Jurors)%2 != 1 {
		t.Fatalf("even jury of %d", len(v.Jurors))
	}
	if v.PredictedJER <= 0 || v.PredictedJER >= 1 {
		t.Fatalf("predicted JER %g", v.PredictedJER)
	}
	// Defaults are normalized into the stored spec.
	if v.TargetConfidence != 0.9 {
		t.Fatalf("target confidence %g, want default 0.9", v.TargetConfidence)
	}
	for _, j := range v.Jurors {
		if j.State != JurorInvited {
			t.Fatalf("juror %q state %q", j.ID, j.State)
		}
	}
	if st := s.Stats(); st.Open != 1 || st.Tasks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCreateValidation(t *testing.T) {
	s, _ := newTestStore(t, 10)
	cases := []Spec{
		{},              // no pool
		{Pool: "ghost"}, // unknown pool
		{Pool: "crowd", Strategy: "bogus"},
		{Pool: "crowd", Strategy: StrategyAltr, Budget: 1}, // budget without pay
		{Pool: "crowd", TargetConfidence: 0.4},
		{Pool: "crowd", TargetConfidence: 1.2},
		{Pool: "crowd", MaxInvites: -1},
	}
	for i, spec := range cases {
		if _, err := s.Create(context.Background(), spec); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
	if st := s.Stats(); st.Tasks != 0 {
		t.Fatalf("rejected creates left %d tasks", st.Tasks)
	}
}

// TestSequentialEarlyStop is the tentpole behaviour: unanimous votes from
// reliable jurors cross the posterior target before the jury is
// exhausted, closing the task with fewer votes than the fixed jury
// would spend.
func TestSequentialEarlyStop(t *testing.T) {
	s, _ := newTestStore(t, 30)
	v, err := s.Create(context.Background(), Spec{Pool: "crowd", TargetConfidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	jurySize := len(v.Jurors)
	var last View
	votes := 0
	for _, j := range v.Jurors {
		last, err = s.Vote(context.Background(), v.ID, j.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		votes++
		if last.Status == StatusDecided {
			break
		}
	}
	if last.Status != StatusDecided {
		t.Fatalf("unanimous jury never decided: %+v", last.Verdict)
	}
	if votes >= jurySize {
		t.Fatalf("spent all %d votes: early stop never fired", jurySize)
	}
	if last.Verdict == nil || !last.Verdict.Answer || !last.Verdict.EarlyStopped {
		t.Fatalf("verdict = %+v, want early-stopped yes", last.Verdict)
	}
	if last.Verdict.Confidence < 0.95 {
		t.Fatalf("confidence %g below target", last.Verdict.Confidence)
	}
	if last.VotesSpent != votes {
		t.Fatalf("votes spent %d, want %d", last.VotesSpent, votes)
	}
	// Further votes are rejected: the task is closed.
	if _, err := s.Vote(context.Background(), v.ID, v.Jurors[jurySize-1].ID, true); !errors.Is(err, ErrTaskClosed) {
		t.Fatalf("vote on closed task = %v", err)
	}
	if st := s.Stats(); st.Decided != 1 || st.Open != 0 || st.AwaitingVotes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFixedJuryTargetOneCollectsAllVotes: target 1 disables early stop —
// the fixed-jury baseline the EXPERIMENTS table compares against.
func TestFixedJuryTargetOneCollectsAllVotes(t *testing.T) {
	s, _ := newTestStore(t, 30)
	v, err := s.Create(context.Background(), Spec{Pool: "crowd", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last View
	for _, j := range v.Jurors {
		last, err = s.Vote(context.Background(), v.ID, j.ID, true)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Status != StatusDecided {
		t.Fatalf("status %q after all votes", last.Status)
	}
	if last.Verdict.EarlyStopped {
		t.Fatal("target 1 still early-stopped")
	}
	if last.VotesSpent != len(v.Jurors) {
		t.Fatalf("votes spent %d, want the whole jury %d", last.VotesSpent, len(v.Jurors))
	}
}

func TestVoteValidation(t *testing.T) {
	s, _ := newTestStore(t, 20)
	v, err := s.Create(context.Background(), Spec{Pool: "crowd"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vote(context.Background(), "ghost", v.Jurors[0].ID, true); !errors.Is(err, ErrTaskNotFound) {
		t.Errorf("unknown task = %v", err)
	}
	if _, err := s.Vote(context.Background(), v.ID, "stranger", true); !errors.Is(err, ErrNotInvited) {
		t.Errorf("uninvited juror = %v", err)
	}
	if _, err := s.Vote(context.Background(), v.ID, v.Jurors[0].ID, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vote(context.Background(), v.ID, v.Jurors[0].ID, false); !errors.Is(err, ErrAlreadyVoted) {
		t.Errorf("double vote = %v", err)
	}
	if _, err := s.Decline(context.Background(), v.ID, v.Jurors[1].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vote(context.Background(), v.ID, v.Jurors[1].ID, true); !errors.Is(err, ErrJurorReleased) {
		t.Errorf("vote after decline = %v", err)
	}
}

// TestDeclineInvitesNextBestReplacement: a released juror is replaced by
// the best not-yet-invited candidate from the creation snapshot.
func TestDeclineInvitesNextBestReplacement(t *testing.T) {
	s, _ := newTestStore(t, 20)
	v, err := s.Create(context.Background(), Spec{Pool: "crowd"})
	if err != nil {
		t.Fatal(err)
	}
	invited := make(map[string]bool)
	var worstRate float64
	for _, j := range v.Jurors {
		invited[j.ID] = true
		if j.ErrorRate > worstRate {
			worstRate = j.ErrorRate
		}
	}
	after, err := s.Decline(context.Background(), v.ID, v.Jurors[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Jurors) != len(v.Jurors)+1 {
		t.Fatalf("no replacement invited: %d jurors", len(after.Jurors))
	}
	repl := after.Jurors[len(after.Jurors)-1]
	if invited[repl.ID] {
		t.Fatalf("replacement %q was already invited", repl.ID)
	}
	if repl.State != JurorInvited {
		t.Fatalf("replacement state %q", repl.State)
	}
	// The altruistic jury is the ε-sorted prefix, so the next-best
	// candidate is the first one worse than the original jury.
	if repl.ErrorRate < worstRate {
		t.Fatalf("replacement ε %g better than an originally selected juror", repl.ErrorRate)
	}
	if after.Declines != 1 {
		t.Fatalf("declines = %d", after.Declines)
	}
}

// TestPublishedViewsStayUnchanged: a published state is never written
// again, so a view rendered from it renders the same after later votes
// and declines, and so does every view a caller holds. A replacement
// grows the invitee array by exactly one, with no spare capacity.
func TestPublishedViewsStayUnchanged(t *testing.T) {
	s, _ := newTestStore(t, 20)
	ctx := context.Background()
	v0, err := s.Create(ctx, Spec{Pool: "crowd", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk := s.lookup(v0.ID)
	st0, want0 := tk.snap.Load(), slices.Clone(v0.Jurors)
	v1, err := s.Vote(ctx, v0.ID, v0.Jurors[0].ID, true)
	if err != nil {
		t.Fatal(err)
	}
	st1, want1 := tk.snap.Load(), slices.Clone(v1.Jurors)
	v2, err := s.Decline(ctx, v0.ID, v0.Jurors[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	st2 := tk.snap.Load()
	if len(st2.jurors) != len(st1.jurors)+1 || cap(st2.jurors) != len(st2.jurors) {
		t.Fatalf("decline left %d invitees with capacity %d, want %d with none spare", len(st2.jurors), cap(st2.jurors), len(st1.jurors)+1)
	}
	if _, err := s.Vote(ctx, v0.ID, v2.Jurors[len(v2.Jurors)-1].ID, false); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		held []JurorView
		st   *taskState
		want []JurorView
	}{{v0.Jurors, st0, want0}, {v1.Jurors, st1, want1}} {
		if !slices.Equal(c.held, c.want) || !slices.Equal(tk.view(c.st).Jurors, c.want) {
			t.Fatalf("view %d changed after later mutations:\nheld     %v\nrendered %v\nwant     %v", i, c.held, tk.view(c.st).Jurors, c.want)
		}
	}
	if j := tk.view(st2).Jurors; j[len(j)-1].State != JurorInvited || v2.Jurors[len(j)-1].State != JurorInvited {
		t.Fatal("the decline's view saw the replacement's later vote")
	}
}

// TestReplacementRespectsBudget: under the pay strategy a replacement
// must fit the budget freed by the release.
func TestReplacementRespectsBudget(t *testing.T) {
	clk := newFakeClock()
	s, err := Open(Config{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	// Cheap unreliable crowd plus one excellent but unaffordable juror.
	jurors := []jury.Juror{
		{ID: "cheap1", ErrorRate: 0.30, Cost: 0.1},
		{ID: "cheap2", ErrorRate: 0.32, Cost: 0.1},
		{ID: "cheap3", ErrorRate: 0.34, Cost: 0.1},
		{ID: "cheap4", ErrorRate: 0.36, Cost: 0.1},
		{ID: "gold", ErrorRate: 0.01, Cost: 5.0},
	}
	if _, err := s.PutPool("crowd", jurors); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create(context.Background(), Spec{Pool: "crowd", Strategy: StrategyPay, Budget: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range v.Jurors {
		if j.ID == "gold" {
			t.Fatal("budget 0.35 admitted the 5.0-cost juror at selection")
		}
	}
	after, err := s.Decline(context.Background(), v.ID, v.Jurors[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range after.Jurors {
		if j.ID == "gold" && j.State == JurorInvited {
			t.Fatal("replacement ignored the remaining budget")
		}
	}
}

// TestJuryExhaustedDecidesOrExpires: when every juror has answered or
// been released (and no replacement fits), the task closes — with the
// MAP verdict if the evidence leans, undecided-expired on a dead tie.
func TestJuryExhaustedDecidesOrExpires(t *testing.T) {
	clk := newFakeClock()
	s, err := Open(Config{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly three jurors, no replacements possible beyond the pool.
	if _, err := s.PutPool("trio", []jury.Juror{
		{ID: "a", ErrorRate: 0.2}, {ID: "b", ErrorRate: 0.2}, {ID: "c", ErrorRate: 0.3},
	}); err != nil {
		t.Fatal(err)
	}
	// Split 2-1 with a high target: no early stop, but decisive evidence.
	v, err := s.Create(context.Background(), Spec{Pool: "trio", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Vote(context.Background(), v.ID, "a", true)  //nolint:errcheck
	s.Vote(context.Background(), v.ID, "b", false) //nolint:errcheck
	last, err := s.Vote(context.Background(), v.ID, "c", false)
	if err != nil {
		t.Fatal(err)
	}
	if last.Status != StatusDecided || last.Verdict == nil || last.Verdict.Answer != false {
		t.Fatalf("split vote: %+v", last)
	}

	// Dead tie: equal reliabilities cancel; the jury is exhausted via a
	// decline with no replacements left, and the task expires undecided.
	v2, err := s.Create(context.Background(), Spec{Pool: "trio", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Vote(context.Background(), v2.ID, "a", true)  //nolint:errcheck
	s.Vote(context.Background(), v2.ID, "b", false) //nolint:errcheck
	last2, err := s.Decline(context.Background(), v2.ID, "c")
	if err != nil {
		t.Fatal(err)
	}
	if last2.Status != StatusExpired || last2.Verdict != nil {
		t.Fatalf("tied exhausted task: %+v", last2)
	}
	if st := s.Stats(); st.Expired != 1 || st.Decided != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSweepTimesOutJurorsAndExpiresTasks exercises the wall-clock
// policy with a fake clock.
func TestSweepTimesOutJurorsAndExpiresTasks(t *testing.T) {
	clk := newFakeClock()
	s, err := Open(Config{Now: clk.now, DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(20)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create(context.Background(), Spec{Pool: "crowd"})
	if err != nil {
		t.Fatal(err)
	}
	// Before the timeout nothing happens.
	released, expired, err := s.Sweep(clk.advance(30 * time.Second))
	if err != nil || released != 0 || expired != 0 {
		t.Fatalf("early sweep: %d released %d expired err %v", released, expired, err)
	}
	// Past the juror timeout every silent invitee is released; their
	// replacements were just invited so they survive this sweep.
	released, _, err = s.Sweep(clk.advance(45 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if released != len(v.Jurors) {
		t.Fatalf("released %d, want the whole silent jury %d", released, len(v.Jurors))
	}
	after, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	timedOut := 0
	for _, j := range after.Jurors {
		if j.State == JurorTimedOut {
			timedOut++
		}
	}
	if timedOut != len(v.Jurors) {
		t.Fatalf("timed out %d, want %d", timedOut, len(v.Jurors))
	}
	if after.Status.closed() {
		t.Fatalf("task closed while replacements pending: %q", after.Status)
	}
	// Past the task expiry the whole task closes without a verdict.
	_, expired, err = s.Sweep(clk.advance(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if expired != 1 {
		t.Fatalf("expired %d tasks, want 1", expired)
	}
	final, _ := s.Get(v.ID)
	if final.Status != StatusExpired || final.Verdict != nil {
		t.Fatalf("expired task: %+v", final)
	}
}

func TestListFiltersByStatus(t *testing.T) {
	s, _ := newTestStore(t, 20)
	a, _ := s.Create(context.Background(), Spec{Pool: "crowd"})
	b, _ := s.Create(context.Background(), Spec{Pool: "crowd"})
	for _, j := range b.Jurors {
		v, err := s.Vote(context.Background(), b.ID, j.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.closed() {
			break
		}
	}
	all := s.List("")
	if len(all) != 2 || all[0].ID != a.ID || all[1].ID != b.ID {
		t.Fatalf("list = %+v", all)
	}
	open := s.List(StatusOpen)
	if len(open) != 1 || open[0].ID != a.ID {
		t.Fatalf("open list = %+v", open)
	}
	decided := s.List(StatusDecided)
	if len(decided) != 1 || decided[0].ID != b.ID {
		t.Fatalf("decided list = %+v", decided)
	}
}

func TestPoolMutationsFlowThroughStore(t *testing.T) {
	s, _ := newTestStore(t, 5)
	if _, err := s.PatchPool("crowd", []pool.JurorUpdate{
		{ID: "j000", Votes: &pool.VoteObservation{Wrong: 1, Total: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	p, ok := s.Pools().Get("crowd")
	if !ok || p.Version != 2 {
		t.Fatalf("patched pool version = %v", p)
	}
	existed, err := s.DeletePool("crowd")
	if err != nil || !existed {
		t.Fatalf("delete = %v %v", existed, err)
	}
	if existed, _ := s.DeletePool("crowd"); existed {
		t.Fatal("double delete reported success")
	}
}
