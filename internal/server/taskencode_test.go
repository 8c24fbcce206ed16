package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"juryselect/internal/tasks"
)

// fuzzTask builds a task response from fuzzer-chosen values. text holds
// the strings, split at '|' and reused in turn: ID, status, pool,
// question, strategy, then each juror's ID and state; a ballot error
// reads the juror's state. x and y feed every number, count every
// integer and duration, and at (with its zone) every time. n%8 is the
// juror count. flags choose what omitempty may drop:
//
//	bit 0 question, 1 budget, 2 declines, 3 verdict (4 its answer,
//	5 early_stopped), 6 nil jurors when there are none, 7 and 8 the
//	cost of even and odd jurors, 9 nil results when there are none,
//	10 applied, 11 skipped, 12 error; bits 13–15 rotate the votes
//	through none, yes and no.
func fuzzTask(text string, n uint8, flags uint16, count int64, x, y float64, at time.Time) (tasks.View, []tasks.BallotResult) {
	f := strings.Split(text, "|")
	field := func(i int) string { return f[i%len(f)] }
	bit := func(k uint) bool { return flags&(1<<k) != 0 }
	yes, no := true, false
	v := tasks.View{
		ID:               field(0),
		Status:           tasks.Status(field(1)),
		Pool:             field(2),
		PoolVersion:      uint64(count),
		Strategy:         field(4),
		TargetConfidence: y,
		PredictedJER:     x * y,
		CreatedAt:        at,
		ExpiresAt:        at.Add(time.Duration(count)),
		Invites:          int(n),
		VotesSpent:       int(count),
		PYes:             y - x,
	}
	if bit(0) {
		v.Question = field(3)
	}
	if bit(1) {
		v.Budget = x
	}
	if bit(2) {
		v.Declines = int(count >> 4)
	}
	if bit(3) {
		v.Verdict = &tasks.VerdictView{Answer: bit(4), Confidence: y, EarlyStopped: bit(5), DecidedAt: v.ExpiresAt}
	}
	if n%8 > 0 || !bit(6) {
		v.Jurors = make([]tasks.JurorView, n%8)
	}
	var results []tasks.BallotResult
	if n%8 > 0 || !bit(9) {
		results = make([]tasks.BallotResult, n%8)
	}
	for i := range v.Jurors {
		j := tasks.JurorView{ID: field(5 + 2*i), ErrorRate: x, Cost: y, State: tasks.JurorState(field(6 + 2*i)),
			InvitedAt: at.Add(time.Duration(i) * time.Duration(count>>8))}
		if i%2 == 1 {
			j.ErrorRate, j.Cost = y, x
		}
		if !bit(7 + uint(i%2)) {
			j.Cost = 0
		}
		switch (int(flags>>13) + i) % 3 {
		case 1:
			j.Vote = &yes
		case 2:
			j.Vote = &no
		}
		v.Jurors[i] = j
		results[i] = tasks.BallotResult{JurorID: j.ID, Applied: bit(10), Skipped: bit(11)}
		if bit(12) {
			results[i].Error = string(j.State)
		}
	}
	return v, results
}

// expectEncoded fails unless got, or the appender's err, matches what
// json.NewEncoder(w).Encode(resp) writes: the same bytes, trailing
// newline included, or an error from both.
func expectEncoded(t *testing.T, what string, got []byte, err error, resp any) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(resp)
	switch {
	case (err != nil) != (werr != nil):
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, err, werr)
	case err == nil && !bytes.Equal(got, want.Bytes()):
		t.Fatalf("%s: bytes differ\nappender      %s\nencoding/json %s", what, got, want.Bytes())
	}
}

// FuzzAppendTaskView checks the task-response appenders against
// encoding/json over fuzzer-built responses: a task, a one-task list and
// a vote batch. The seed corpus under testdata/fuzz covers HTML
// escaping, U+2028/U+2029 and invalid UTF-8 in IDs and questions, the
// float format's switch to exponent form below 1e-6 and from 1e21,
// negative zero, every omitempty field present and absent, zone offsets
// (with seconds, and past 24 hours), years outside 0–9999, NaN and
// infinities. Explore with
//
//	go test -run '^$' -fuzz='^FuzzAppendTaskView$' ./internal/server/
func FuzzAppendTaskView(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, n uint8, flags uint16, count int64, x, y float64, sec int64, nsec uint32, zone int32) {
		at := time.Unix(sec, int64(nsec)).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("", int(zone)))
		}
		v, results := fuzzTask(text, n, flags, count, x, y, at)
		got, err := appendTaskResponse(nil, &v)
		expectEncoded(t, "task", got, err, TaskResponse{Task: v})
		got, err = appendTaskList(nil, []tasks.View{v})
		expectEncoded(t, "list", got, err, TaskListResponse{Tasks: []tasks.View{v}})
		got, err = appendTaskBatch(nil, results, &v)
		expectEncoded(t, "batch", got, err, TaskVoteBatchResponse{Results: results, Task: v})
	})
}

// TestAppendTaskListEdges covers the list shapes the fuzz target does
// not build: no tasks, as nil and as empty, and several.
func TestAppendTaskListEdges(t *testing.T) {
	at := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	v, _ := fuzzTask("t00000000|open|crowd|q|altr|j1|invited", 1, 0, 1, 0.1, 0.9, at)
	w, _ := fuzzTask("t00000001|decided|crowd|q|pay|j2|voted", 2, 0xFFFF, 7, 0.25, 0.75, at)
	for _, views := range [][]tasks.View{nil, {}, {v, w, v}} {
		got, err := appendTaskList(nil, views)
		expectEncoded(t, "list", got, err, TaskListResponse{Tasks: views})
	}
}
