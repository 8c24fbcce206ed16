package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"juryselect/internal/jer"
	"juryselect/internal/server"
	"juryselect/internal/tasks"
)

// runState is the generator's view of one run: what was acknowledged,
// the output checks, and the task-lifecycle bookkeeping that turns
// responses into follow-up ops.
type runState struct {
	g     *gen
	phase *phase // the phase follow-ups are pushed into

	mu        sync.Mutex
	failures  int
	failMsgs  []string
	late      int               // votes that reached a task another vote had just closed
	versions  map[string]uint64 // pool -> highest acknowledged version
	juries    int               // successful selects (votes_per_verdict base)
	jurySum   int               // their summed jury sizes
	samples   []jerSample       // responses kept for the exact-JER check
	taskIDs   map[int]string    // task index -> ID, for acknowledged creates
	taskIdx   map[string]int
	taskPool  map[int]string
	tasks     map[int]*taskState
	ackVotes  map[string]map[string]string // task ID -> juror -> "yes"/"no"/"declined"
	followUps bool                         // closed loop: follow-ups are due at once
}

type taskState struct {
	closed    bool
	scheduled map[string]bool // jurors whose answer is scheduled
	polls     int
}

// jerSample is a response kept for the post-run exact-JER check.
type jerSample struct {
	rates []float64 // the jury (select) or the request (jer)
	jer   float64
	body  []byte // select response, parsed after the run
}

func newRunState(g *gen) *runState {
	return &runState{
		g:        g,
		versions: map[string]uint64{},
		taskIDs:  map[int]string{},
		taskIdx:  map[string]int{},
		taskPool: map[int]string{},
		tasks:    map[int]*taskState{},
		ackVotes: map[string]map[string]string{},
	}
}

func (s *runState) fail(msg string) {
	s.mu.Lock()
	s.failLocked(msg)
	s.mu.Unlock()
}

func (s *runState) failLocked(msg string) {
	s.failures++
	if len(s.failMsgs) < 8 {
		s.failMsgs = append(s.failMsgs, msg)
	}
}

// request renders an op as an HTTP request. Bodies built at send time
// (inline selects, /v1/jer) go into *scratch, which the caller owns and
// reuses once the request has completed.
func (s *runState) request(o *op, scratch *[]byte) (method, path string, body []byte) {
	switch o.kind {
	case opSelectPool:
		return http.MethodPost, "/v1/select", o.body
	case opSelectInline:
		*scratch = o.appendBody((*scratch)[:0])
		return http.MethodPost, "/v1/select", *scratch
	case opJER:
		*scratch = o.appendBody((*scratch)[:0])
		return http.MethodPost, "/v1/jer", *scratch
	case opPatch:
		return http.MethodPatch, "/v1/pools/" + o.pool + "/jurors", o.body
	case opCreate:
		return http.MethodPost, "/v1/tasks", mustJSON(server.TaskCreateRequest{
			Pool: o.pool, Question: "q" + strconv.Itoa(o.task), Strategy: "pay", Budget: o.budget,
			TargetConfidence: targetConfidence})
	case opVote, opDecline:
		s.mu.Lock()
		id := s.taskIDs[o.task]
		s.mu.Unlock()
		req := server.TaskVoteRequest{JurorID: o.juror, Decline: o.kind == opDecline}
		if o.kind == opVote {
			v := o.vote
			req.Vote = &v
		}
		return http.MethodPost, taskPath(id) + "/votes", mustJSON(req)
	default: // opPoll
		s.mu.Lock()
		id := s.taskIDs[o.task]
		s.mu.Unlock()
		return http.MethodGet, taskPath(id), nil
	}
}

// versionFloor is the pool version every response to o must reach: the
// highest version acknowledged before o was sent. A pool's version never
// goes backwards.
func (s *runState) versionFloor(o *op) uint64 {
	if o.kind != opSelectPool && o.kind != opPatch {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versions[o.pool]
}

// skip drops a follow-up for a task already known to be closed: the
// juror's answer would arrive after the verdict and the asker no longer
// asks. Called with the phase lock held.
func (s *runState) skip(o *op) bool {
	if o.kind != opVote && o.kind != opDecline && o.kind != opPoll {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tasks[o.task]
	return t == nil || t.closed
}

// handle checks one response and schedules its follow-ups. It reports
// whether the op succeeded.
func (s *runState) handle(o *op, status int, body []byte, floor uint64, now time.Duration) bool {
	var follow []op
	ok := s.check(o, status, body, floor, now, &follow)
	for _, f := range follow {
		s.phase.push(f)
	}
	return ok
}

func (s *runState) check(o *op, status int, body []byte, floor uint64, now time.Duration, follow *[]op) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := http.StatusOK
	if o.kind == opCreate {
		want = http.StatusCreated
	}
	if status != want {
		if (o.kind == opVote || o.kind == opDecline) && status == http.StatusConflict &&
			bytes.Contains(body, []byte("already closed")) {
			// Another vote closed the task while this one was in flight.
			s.late++
			if t := s.tasks[o.task]; t != nil {
				t.closed = true
			}
			return true
		}
		s.failLocked(fmt.Sprintf("%s: status %d: %.200s", o.kind, status, body))
		return false
	}
	switch o.kind {
	case opSelectPool, opSelectInline:
		return s.checkSelect(o, body, floor)
	case opJER:
		v, ok1 := scanNumber(body, `"jer":`)
		n, ok2 := scanNumber(body, `"size":`)
		if !ok1 || !ok2 {
			s.failLocked(fmt.Sprintf("jer: malformed response %.200s", body))
			return false
		}
		if int(n) != len(o.rates) {
			s.failLocked(fmt.Sprintf("jer: size %v for a jury of %d", n, len(o.rates)))
			return false
		}
		if o.sample {
			s.samples = append(s.samples, jerSample{rates: o.rates, jer: v})
		}
		return true
	case opPatch:
		v, ok := scanNumber(body, `"version":`)
		if !ok || uint64(v) <= floor {
			s.failLocked(fmt.Sprintf("patch %s: version %v not above acknowledged %d", o.pool, v, floor))
			return false
		}
		if uint64(v) > s.versions[o.pool] {
			s.versions[o.pool] = uint64(v)
		}
		return true
	}
	var resp server.TaskResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		s.failLocked(fmt.Sprintf("%s: %v", o.kind, err))
		return false
	}
	v := &resp.Task
	switch o.kind {
	case opCreate:
		if v.Budget > 0 && jurorCost(v) > v.Budget+1e-9 {
			s.failLocked(fmt.Sprintf("create %s: jury cost %g exceeds budget %g", v.ID, jurorCost(v), v.Budget))
			return false
		}
		s.taskIDs[o.task] = v.ID
		s.taskIdx[v.ID] = o.task
		s.taskPool[o.task] = o.pool
		s.tasks[o.task] = &taskState{scheduled: map[string]bool{}}
		s.ackVotes[v.ID] = map[string]string{}
		*follow = append(*follow, op{at: s.due(now, pollEvery), kind: opPoll, task: o.task})
	case opVote:
		s.ackVotes[v.ID][o.juror] = strconv.FormatBool(o.vote)
	case opDecline:
		s.ackVotes[v.ID][o.juror] = "declined"
	case opPoll:
		t := s.tasks[o.task]
		t.polls++
		// The closed loop polls each task once, so its op mix does not
		// depend on how fast votes land.
		if !s.followUps && !closedStatus(v.Status) && t.polls < maxPolls {
			*follow = append(*follow, op{at: s.due(now, pollEvery), kind: opPoll, task: o.task})
		}
	}
	s.observeTask(o.task, v, now, follow)
	return true
}

// observeTask folds a task view into the asker's state: a closed task
// stops its jurors, a newly invited juror gets an answer scheduled.
func (s *runState) observeTask(k int, v *tasks.View, now time.Duration, follow *[]op) {
	t := s.tasks[k]
	if t == nil || t.closed {
		return
	}
	if closedStatus(v.Status) {
		t.closed = true
		return
	}
	pool := s.taskPool[k]
	for _, j := range v.Jurors {
		if j.State != tasks.JurorInvited || t.scheduled[j.ID] {
			continue
		}
		t.scheduled[j.ID] = true
		decline, vote, delay := s.g.answer(k, pool, j.ID)
		f := op{at: s.due(now, delay), kind: opVote, task: k, juror: j.ID, vote: vote}
		if decline {
			f.kind = opDecline
		}
		*follow = append(*follow, f)
	}
}

// due is the intended time of a follow-up: now plus the delay in the
// open loop, at once in the closed loop.
func (s *runState) due(now, delay time.Duration) time.Duration {
	if s.followUps {
		return 0
	}
	return now + delay
}

func jurorCost(v *tasks.View) float64 {
	c := 0.0
	for _, j := range v.Jurors {
		c += j.Cost
	}
	return c
}

// checkSelect applies the per-response select checks: the budget holds,
// the pool version does not go backwards, and sampled responses are kept
// for the exact-JER check.
func (s *runState) checkSelect(o *op, body []byte, floor uint64) bool {
	size, ok1 := scanNumber(body, `"size":`)
	j, ok2 := scanNumber(body, `"jury_error_rate":`)
	cost, ok3 := scanNumber(body, `"total_cost":`)
	if !ok1 || !ok2 || !ok3 || size < 1 {
		s.failLocked(fmt.Sprintf("select: malformed response %.200s", body))
		return false
	}
	if o.model == "pay" && cost > o.budget+1e-9 {
		s.failLocked(fmt.Sprintf("select: pay jury cost %g exceeds budget %g", cost, o.budget))
		return false
	}
	if o.kind == opSelectPool {
		ver, ok := scanNumberLast(body, `"pool_version":`)
		if !ok || uint64(ver) < floor {
			s.failLocked(fmt.Sprintf("select %s: pool version %v behind acknowledged %d", o.pool, ver, floor))
			return false
		}
		if uint64(ver) > s.versions[o.pool] {
			s.versions[o.pool] = uint64(ver)
		}
	}
	s.juries++
	s.jurySum += int(size)
	if o.sample {
		s.samples = append(s.samples, jerSample{jer: j, body: append([]byte(nil), body...)})
	}
	return true
}

// checkSamples verifies every kept response after the run: the reported
// JER equals jer.Compute over the returned jury (or the posted rates) to
// within 1e-9. It returns the number checked.
func (s *runState) checkSamples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, smp := range s.samples {
		rates := smp.rates
		if smp.body != nil {
			var resp server.SelectResponse
			if err := json.Unmarshal(smp.body, &resp); err != nil {
				s.failLocked(fmt.Sprintf("select sample: %v", err))
				continue
			}
			if resp.Selection.Size != len(resp.Selection.Jurors) {
				s.failLocked("select sample: size does not match the jury")
				continue
			}
			for _, jr := range resp.Selection.Jurors {
				rates = append(rates, jr.ErrorRate)
			}
		}
		want, err := jer.Compute(rates, jer.Auto)
		if err != nil || math.Abs(want-smp.jer) > 1e-9 {
			s.failLocked(fmt.Sprintf("jer check: reported %g, jer.Compute gives %g (err %v)", smp.jer, want, err))
		}
	}
	return len(s.samples)
}

// verifyDurable checks, against a restarted juryd, that every
// acknowledged create, vote and decline is visible and that no pool
// version went backwards. It also returns the realized decision quality
// over the recovered tasks: decided tasks, wrong verdicts, votes spent.
func (s *runState) verifyDurable(c *client) (checked int, q quality) {
	buf := new(bytes.Buffer)
	for pool, want := range s.versions {
		status, err := c.do(http.MethodGet, "/v1/pools/"+pool, nil, buf, 0)
		var pr server.PoolResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(buf.Bytes(), &pr)
		}
		checked++
		if err != nil || status != http.StatusOK || pr.Version < want {
			s.fail(fmt.Sprintf("recovered pool %s: version %d < acknowledged %d (status %d, err %v)", pool, pr.Version, want, status, err))
		}
	}
	if len(s.taskIDs) == 0 {
		return checked, q
	}
	status, err := c.do(http.MethodGet, "/v1/tasks", nil, buf, 0)
	var list server.TaskListResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(buf.Bytes(), &list)
	}
	if err != nil || status != http.StatusOK {
		s.fail(fmt.Sprintf("recovered task list: status %d, err %v", status, err))
		return checked, q
	}
	byID := make(map[string]*tasks.View, len(list.Tasks))
	for i := range list.Tasks {
		byID[list.Tasks[i].ID] = &list.Tasks[i]
	}
	for id, votes := range s.ackVotes {
		checked++
		v := byID[id]
		if v == nil {
			s.fail("acknowledged create lost: " + id)
			continue
		}
		states := make(map[string]tasks.JurorView, len(v.Jurors))
		for _, j := range v.Jurors {
			states[j.ID] = j
		}
		for juror, what := range votes {
			checked++
			j, ok := states[juror]
			var got string
			switch {
			case ok && j.State == tasks.JurorVoted && j.Vote != nil:
				got = strconv.FormatBool(*j.Vote)
			case ok && j.State == tasks.JurorDeclined:
				got = "declined"
			}
			if got != what {
				s.fail(fmt.Sprintf("acknowledged %s by %s on %s lost (recovered %q)", what, juror, id, got))
			}
		}
		if v.Status == tasks.StatusDecided && v.Verdict != nil {
			q.decided++
			q.votes += v.VotesSpent
			if v.Verdict.Answer != s.g.truth(s.taskIdx[id]) {
				q.wrong++
			}
		}
	}
	return checked, q
}

// quality is the realized decision quality of a run's tasks.
type quality struct {
	decided, wrong, votes int
}

// scanNumber reads the JSON number after the first occurrence of key.
// Select responses carry a jury of up to a few thousand jurors; reading
// the handful of scalars the checks need this way keeps the generator's
// per-response cost far below juryd's.
func scanNumber(body []byte, key string) (float64, bool) {
	return numberAt(body, bytes.Index(body, []byte(key)), len(key))
}

// scanNumberLast is scanNumber on the last occurrence (fields encoded
// after the jury).
func scanNumberLast(body []byte, key string) (float64, bool) {
	return numberAt(body, bytes.LastIndex(body, []byte(key)), len(key))
}

func numberAt(body []byte, i, klen int) (float64, bool) {
	if i < 0 {
		return 0, false
	}
	rest := body[i+klen:]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	return v, err == nil
}

// closedStatus reports whether a task status is terminal.
func closedStatus(st tasks.Status) bool {
	return st == tasks.StatusDecided || st == tasks.StatusExpired
}
