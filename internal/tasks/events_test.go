package tasks

import "testing"

// TestTallyObserve pins what each event counts, for tasks the sink saw
// open (known) and tasks it did not.
func TestTallyObserve(t *testing.T) {
	type obs struct {
		ev    Event
		known bool
	}
	created := Event{Type: EvTaskCreated}
	invite := Event{Type: EvJurorInvited}
	vote := Event{Type: EvVoteRecorded}
	decline := Event{Type: EvJurorReleased}
	timeout := Event{Type: EvJurorReleased, Timeout: true}
	decided := Event{Type: EvTaskClosed, Decided: true}
	expired := Event{Type: EvTaskClosed}
	for _, c := range []struct {
		name   string
		stream []obs
		want   Tally
	}{
		{"created", []obs{{created, false}},
			Tally{Totals: Totals{Events: 1, TasksCreated: 1, TasksOpen: 1}}},
		{"created ignores known", []obs{{created, true}},
			Tally{Totals: Totals{Events: 1, TasksCreated: 1, TasksOpen: 1}}},
		{"decided close", []obs{{created, false}, {decided, true}},
			Tally{Totals: Totals{Events: 2, TasksCreated: 1, TasksDecided: 1}}},
		{"expired close", []obs{{created, false}, {expired, true}},
			Tally{Totals: Totals{Events: 2, TasksCreated: 1, TasksExpired: 1}}},
		{"unknown closes", []obs{{decided, false}, {expired, false}},
			Tally{Totals: Totals{Events: 2}, Unknown: 2}},
		{"votes", []obs{{vote, true}, {vote, false}},
			Tally{Totals: Totals{Events: 2, Votes: 2}, Unknown: 1}},
		{"decline versus timeout", []obs{{decline, true}, {timeout, true}, {timeout, true}},
			Tally{Totals: Totals{Events: 3, Declines: 1, Timeouts: 2}}},
		{"unknown releases", []obs{{decline, false}, {timeout, false}},
			Tally{Totals: Totals{Events: 2, Declines: 1, Timeouts: 1}, Unknown: 2}},
		{"replacement invites", []obs{{invite, true}, {invite, false}, {invite, true}},
			Tally{Totals: Totals{Events: 3}, Replacements: 3, Unknown: 1}},
		{"one task's life", []obs{{created, false}, {decline, true}, {invite, true},
			{vote, true}, {timeout, true}, {vote, true}, {decided, true}},
			Tally{Totals: Totals{Events: 7, TasksCreated: 1, TasksDecided: 1,
				Votes: 2, Declines: 1, Timeouts: 1}, Replacements: 1}},
	} {
		var got Tally
		for _, o := range c.stream {
			got.Observe(o.ev, o.known)
		}
		if got != c.want {
			t.Errorf("%s: tally = %+v, want %+v", c.name, got, c.want)
		}
	}
}
