package tasks

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"juryselect/jury"
)

// TestVoteBatch pins Store.VoteBatch, the one batch-vote loop behind
// POST /v1/tasks/{id}/votes/batch and the simulator's in-process batch
// walk. Every row runs on a fresh store whose "trio" pool (ε 0.2, 0.2,
// 0.3) selects all three jurors and leaves no replacement to invite.
func TestVoteBatch(t *testing.T) {
	yes, no := true, false
	vote := func(id string, v *bool) Ballot { return Ballot{JurorID: id, Vote: v} }
	decline := func(id string) Ballot { return Ballot{JurorID: id, Decline: true} }
	applied := func(id string) BallotResult { return BallotResult{JurorID: id, Applied: true} }
	skipped := func(id string) BallotResult { return BallotResult{JurorID: id, Skipped: true} }
	failed := func(id, msg string) BallotResult { return BallotResult{JurorID: id, Error: msg} }
	const task = "t00000000"
	onTask := func(err error, juror string) string { return fmt.Sprintf("%v: %q on task %s", err, juror, task) }

	rows := []struct {
		name    string
		target  float64
		before  []Ballot // applied one at a time before the batch
		ballots []Ballot
		want    []BallotResult
		status  Status
		votes   int
	}{{
		// Two ε=0.2 yes votes reach 16/17 ≥ 0.9: c's ballot and the
		// malformed one after it are skipped unexamined.
		name:    "early stop skips the rest",
		target:  0.9,
		ballots: []Ballot{vote("a", &yes), vote("b", &yes), vote("c", &yes), {}},
		want:    []BallotResult{applied("a"), applied("b"), skipped("c"), skipped("")},
		status:  StatusDecided,
		votes:   2,
	}, {
		// A 1–1 tie with c released exhausts the jury undecided.
		name:    "exhausting decline expires and skips the rest",
		target:  1,
		ballots: []Ballot{vote("a", &yes), vote("b", &no), decline("c"), vote("a", &yes), {}},
		want:    []BallotResult{applied("a"), applied("b"), applied("c"), skipped("a"), skipped("")},
		status:  StatusExpired,
		votes:   2,
	}, {
		name:   "task rejections are per-item errors",
		target: 1,
		ballots: []Ballot{vote("stranger", &yes), vote("a", &yes), vote("a", &no),
			decline("b"), vote("b", &yes)},
		want: []BallotResult{
			failed("stranger", onTask(ErrNotInvited, "stranger")),
			applied("a"),
			failed("a", onTask(ErrAlreadyVoted, "a")),
			applied("b"),
			failed("b", onTask(ErrJurorReleased, "b")),
		},
		status: StatusAwaitingVotes,
		votes:  1,
	}, {
		name:   "wire-shape errors keep their text and position",
		target: 1,
		ballots: []Ballot{{Vote: &yes}, {JurorID: "a", Vote: &yes, Decline: true},
			{JurorID: "b"}, vote("c", &no)},
		want: []BallotResult{
			failed("", "juror_id must be set"),
			failed("a", "vote and decline are mutually exclusive"),
			failed("b", "body must carry vote or decline"),
			applied("c"),
		},
		status: StatusAwaitingVotes,
		votes:  1,
	}, {
		// The view is the one after the last applied ballot, not the
		// empty view a rejected ballot returns.
		name:    "rejection after an applied ballot keeps its view",
		target:  1,
		ballots: []Ballot{vote("a", &yes), vote("a", &yes)},
		want:    []BallotResult{applied("a"), failed("a", onTask(ErrAlreadyVoted, "a"))},
		status:  StatusAwaitingVotes,
		votes:   1,
	}, {
		name:    "no ballot applied returns the current view",
		target:  1,
		before:  []Ballot{vote("a", &yes), vote("b", &yes)},
		ballots: []Ballot{vote("a", &no), {JurorID: "c"}},
		want:    []BallotResult{failed("a", onTask(ErrAlreadyVoted, "a")), failed("c", "body must carry vote or decline")},
		status:  StatusAwaitingVotes,
		votes:   2,
	}, {
		name:    "closed task skips every ballot",
		target:  0.9,
		before:  []Ballot{vote("a", &yes), vote("b", &yes)},
		ballots: []Ballot{vote("c", &yes), vote("c", &no)},
		want:    []BallotResult{skipped("c"), skipped("c")},
		status:  StatusDecided,
		votes:   2,
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			s := newTrioStore(t)
			v, err := s.Create(ctx, Spec{Pool: "trio", TargetConfidence: row.target})
			if err != nil {
				t.Fatal(err)
			}
			if v.ID != task || len(v.Jurors) != 3 {
				t.Fatalf("created %s with %d jurors, want %s with the whole trio", v.ID, len(v.Jurors), task)
			}
			for _, b := range row.before {
				if _, err := s.Vote(ctx, task, b.JurorID, *b.Vote); err != nil {
					t.Fatal(err)
				}
			}
			results, view, err := s.VoteBatch(ctx, task, row.ballots)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(row.want) {
				t.Fatalf("%d results for %d ballots", len(results), len(row.ballots))
			}
			for i := range results {
				if results[i] != row.want[i] {
					t.Errorf("result %d = %+v, want %+v", i, results[i], row.want[i])
				}
			}
			if view.ID != task || view.Status != row.status || view.VotesSpent != row.votes {
				t.Errorf("view %s is %s with %d votes, want %s %s with %d",
					view.ID, view.Status, view.VotesSpent, task, row.status, row.votes)
			}
			if got, err := s.Get(task); err != nil || got.Status != view.Status || got.VotesSpent != view.VotesSpent {
				t.Errorf("returned view disagrees with Get: %+v vs %+v (%v)", view, got, err)
			}
		})
	}
}

// TestVoteBatchUnknownTask: an unknown task fails the whole batch,
// whether a ballot reaches the store or none is well formed.
func TestVoteBatchUnknownTask(t *testing.T) {
	s := newTrioStore(t)
	yes := true
	for _, ballots := range [][]Ballot{
		{{JurorID: "a", Vote: &yes}},
		{{JurorID: "a"}},
	} {
		results, _, err := s.VoteBatch(context.Background(), "ghost", ballots)
		if !errors.Is(err, ErrTaskNotFound) || results != nil {
			t.Errorf("batch %+v on an unknown task = %v, %v", ballots, results, err)
		}
	}
}

// TestVoteBatchWaitsOnce: a batch waits for durability once, on its last
// applied ballot, whose commit covers the earlier ones because the log
// is ordered. Voting a whole fixed jury in one batch on a SyncBatch
// store appends a record per ballot and adds one durability wait.
func TestVoteBatchWaitsOnce(t *testing.T) {
	ctx := context.Background()
	s, err := Open(Config{Dir: t.TempDir(), Sync: SyncBatch, Now: newFakeClock().now, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	if _, err := s.PutPool("crowd", crowdJurors(29)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create(ctx, Spec{Pool: "crowd", TargetConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Jurors) < 2 {
		t.Fatalf("jury of %d, want several ballots", len(v.Jurors))
	}
	ballots := make([]Ballot, len(v.Jurors))
	for i, j := range v.Jurors {
		ballots[i] = Ballot{JurorID: j.ID, Vote: sharedBool(i%2 == 0)}
	}
	before := s.Stats().WAL
	results, view, err := s.VoteBatch(ctx, v.ID, ballots)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Applied {
			t.Fatalf("ballot %d: %+v", i, res)
		}
	}
	if !view.Status.closed() {
		t.Fatalf("a fully voted fixed jury left the task %s", view.Status)
	}
	after := s.Stats().WAL
	if got := after.Appends - before.Appends; got != int64(len(ballots)) {
		t.Errorf("%d ballots appended %d records", len(ballots), got)
	}
	if got := after.DurableWaitHist.Count - before.DurableWaitHist.Count; got != 1 {
		t.Errorf("%d ballots waited for durability %d times, want 1", len(ballots), got)
	}
}

// newTrioStore opens a memory-only store holding the three-juror "trio"
// pool.
func newTrioStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Config{Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("trio", []jury.Juror{
		{ID: "a", ErrorRate: 0.2}, {ID: "b", ErrorRate: 0.2}, {ID: "c", ErrorRate: 0.3},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}
