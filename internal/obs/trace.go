package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Stage identifies one internal phase of a request. Stages are recorded
// as contiguous segments: each mark attributes the time since the
// previous mark to its stage, so a request's spans partition its
// handler time (modulo unmarked gaps).
type Stage uint8

const (
	// StageQueueWait is time spent in admission control waiting for an
	// inflight slot.
	StageQueueWait Stage = iota
	// StageDecode is request-body read + JSON decode.
	StageDecode
	// StageSnapshot is request validation and pool-snapshot resolution.
	StageSnapshot
	// StageCacheProbe is the select response cache lookup.
	StageCacheProbe
	// StageEngine is the JER engine evaluation (selection or JER).
	StageEngine
	// StageStore is the task store mutation: journal append + in-memory
	// apply + durability wait (StageWALWait, when present, is the
	// durability-wait share of it).
	StageStore
	// StageWALWait is the WAL append→durable wait inside a store
	// mutation, recorded by the task store when the request is traced.
	StageWALWait
	// StageEncode is response encoding and the write to the socket.
	StageEncode

	numStages
)

// NumStages is the number of defined stages, for sizing per-stage
// histogram arrays.
const NumStages = int(numStages)

var stageNames = [NumStages]string{
	"queue_wait", "decode", "snapshot", "cache_probe",
	"engine", "store", "wal_wait", "encode",
}

// String returns the stage's snake_case name (also its label value in
// the Prometheus exposition).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// MarshalText renders the stage name into JSON trace dumps.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a stage name back, so trace dumps round-trip
// through clients that re-decode them.
func (s *Stage) UnmarshalText(b []byte) error {
	for i, name := range stageNames {
		if name == string(b) {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown stage %q", b)
}

// Span is one stage segment of a trace.
type Span struct {
	Stage Stage `json:"stage"`
	DurNS int64 `json:"dur_ns"`
}

// MaxSpans caps a trace's span count. A request that marks more (a huge
// batch) sets Truncated instead of growing the slice: trace recording
// must never allocate on the request path.
const MaxSpans = 64

// Trace is one request's span record. A Trace is owned by a single
// request goroutine while live (Add is not synchronized); captured
// copies in a TraceRing are immutable.
type Trace struct {
	ID       int64  `json:"id"`
	Endpoint string `json:"endpoint"`
	// TaskID is the decision task a lifecycle request touched (create,
	// get, vote), so a slow verdict can be filtered out of the ring and
	// followed end to end; empty for non-task requests.
	TaskID    string    `json:"task_id,omitempty"`
	Status    int       `json:"status"`
	Start     time.Time `json:"start"`
	DurNS     int64     `json:"dur_ns"`
	Spans     []Span    `json:"spans"`
	Truncated bool      `json:"truncated,omitempty"`
}

// Add appends one span, dropping (and flagging) past MaxSpans.
func (t *Trace) Add(st Stage, durNS int64) {
	if len(t.Spans) == cap(t.Spans) {
		t.Truncated = true
		return
	}
	t.Spans = append(t.Spans, Span{Stage: st, DurNS: durNS})
}

// Reset clears the trace for reuse, keeping the span storage.
func (t *Trace) Reset() {
	t.ID, t.Endpoint, t.Status, t.DurNS = 0, "", 0, 0
	t.TaskID = ""
	t.Start = time.Time{}
	t.Spans = t.Spans[:0]
	t.Truncated = false
}

// traceKey threads a *Trace through a context. Only sampled (or
// slow-captured) requests pay the context allocation; the untraced path
// never calls ContextWithTrace.
type traceKey struct{}

// ContextWithTrace returns a context carrying the trace, for layers
// (the task store's durability wait) that record spans without seeing
// the request writer.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFromContext returns the context's trace, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// DefaultTraceRing is the trace ring's default capacity.
const DefaultTraceRing = 256

// TraceRing is a fixed-size ring of recently captured traces. Capture
// copies the trace into a preallocated entry under a short mutex — no
// allocation, no contention with uncaptured requests (which never touch
// the ring). Readers get fresh copies, newest first. A nil ring reads as
// an empty one, so a server with tracing off allocates none.
type TraceRing struct {
	mu      sync.Mutex
	entries []Trace
	next    int   // entries[next] is overwritten by the next capture
	wrapped bool  // every entry holds a real trace
	total   int64 // captures since creation
}

// NewTraceRing returns a ring holding up to n traces (n ≤ 0 selects
// DefaultTraceRing). Every entry's span storage is preallocated.
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceRing
	}
	r := &TraceRing{entries: make([]Trace, n)}
	for i := range r.entries {
		r.entries[i].Spans = make([]Span, 0, MaxSpans)
	}
	return r
}

// Capture copies the trace into the ring.
func (r *TraceRing) Capture(t *Trace) {
	r.mu.Lock()
	e := &r.entries[r.next]
	spans := e.Spans[:0]
	*e = *t
	e.Spans = append(spans, t.Spans...)
	r.next++
	if r.next == len(r.entries) {
		r.next, r.wrapped = 0, true
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of traces captured since creation (captures,
// not residents — the ring holds at most its capacity).
func (r *TraceRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns up to limit captured traces, newest first, that pass
// the filter (nil accepts all). The returned traces are deep copies —
// safe to hold across further captures.
func (r *TraceRing) Snapshot(filter func(*Trace) bool, limit int) []Trace {
	if r == nil {
		return []Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.wrapped {
		n = len(r.entries)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Trace, 0, limit)
	for i := 0; i < n && len(out) < limit; i++ {
		// Walk backwards from the most recent entry.
		idx := (r.next - 1 - i + len(r.entries)) % len(r.entries)
		e := &r.entries[idx]
		if filter != nil && !filter(e) {
			continue
		}
		c := *e
		c.Spans = append([]Span(nil), e.Spans...)
		out = append(out, c)
	}
	return out
}
