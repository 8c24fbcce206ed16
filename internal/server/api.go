// Package server is the network-facing subsystem of the reproduction: an
// HTTP/JSON service ("juryd") that answers the paper's decision-making
// primitive online. A requester posts a question's candidate crowd — or
// names a live pool — and the service returns the minimum-JER jury at
// that moment (cf. Cao et al., PVLDB 2012, and the serving framing of
// Mahmud et al., arXiv:1404.2013).
//
// Pools live in internal/pool — the versioned directory of juror pools
// with copy-on-write snapshots behind one atomic pointer, so selections
// read a consistent pool without taking locks on the hot path while
// PUT/PATCH writers publish new versions (observed votes re-estimate
// error rates via estimate.PosteriorRate). The pieces here:
//
//   - server.go: the handlers (POST /v1/jer, POST /v1/select, pool CRUD
//     under /v1/pools), bounded-queue admission with 429 load-shedding,
//     and per-request deadlines propagated as context.
//   - tasks.go: the decision-task lifecycle endpoints (POST /v1/tasks,
//     GET /v1/tasks[/{id}], POST /v1/tasks/{id}/votes) fronting
//     internal/tasks — the WAL-backed store with sequential early-stop
//     voting and juror replacement. When a task store is configured,
//     pool mutations are journaled through it so recovery replays pools
//     and tasks together.
//   - metrics.go: /healthz and /metrics (expvar counters: requests,
//     shed, errors, the engine's evaluation/cache/inflight stats, and
//     the task-store gauges + WAL counters).
//
// cmd/juryd wires the package to flags, initial pool files, WAL
// recovery, the juror-timeout sweeper, and a SIGTERM graceful drain.
package server

import (
	"encoding/json"
	"time"

	"juryselect/internal/dataio"
	"juryselect/internal/pool"
)

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// JERRequest is the body of POST /v1/jer.
type JERRequest struct {
	// ErrorRates are the individual error rates of the jury to evaluate.
	ErrorRates []float64 `json:"error_rates"`
	// TimeoutMS optionally overrides the server's default per-request
	// deadline, clamped to the configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JERResponse is the body of a successful POST /v1/jer.
type JERResponse struct {
	JER  float64 `json:"jer"`
	Size int     `json:"size"`
}

// SelectRequest is the body of POST /v1/select. Exactly one of Pool and
// Candidates must be set.
type SelectRequest struct {
	// Pool names a stored pool; the selection runs on its current
	// snapshot and the response reports the snapshot version.
	Pool string `json:"pool,omitempty"`
	// Candidates is an inline candidate set for one-shot requests.
	Candidates []dataio.JurorJSON `json:"candidates,omitempty"`
	// Model is "altr" (default) or "pay".
	Model string `json:"model,omitempty"`
	// Budget is the pay model's budget B.
	Budget float64 `json:"budget,omitempty"`
	// Exact requests exact enumeration instead of the PayALG greedy
	// (pay model, at most jury.MaxExactCandidates candidates).
	Exact bool `json:"exact,omitempty"`
	// TimeoutMS optionally overrides the default per-request deadline,
	// clamped to the configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchSelectRequest is the body of POST /v1/select/batch: up to the
// server's batch cap of independent selects resolved in one round trip.
// TimeoutMS bounds the whole batch; per-item timeout_ms fields are
// ignored.
type BatchSelectRequest struct {
	Selects   []SelectRequest `json:"selects"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// BatchSelectResponse is the body of a successful POST /v1/select/batch.
// Results[i] corresponds to Selects[i] and is either a SelectResponse or
// an errorResponse ({"error": ...}); item failures never fail the batch.
type BatchSelectResponse struct {
	Results []json.RawMessage `json:"results"`
}

// SelectResponse is the body of a successful POST /v1/select. Selection
// is the same shape cmd/juryselect -json emits; PoolVersion identifies
// the exact snapshot the jury was selected from.
type SelectResponse struct {
	Selection   dataio.SelectionJSON `json:"selection"`
	Pool        string               `json:"pool,omitempty"`
	PoolVersion uint64               `json:"pool_version,omitempty"`
}

// PoolJurorJSON is the wire form of one live-pool member: the juror, its
// accumulated voting record, and the uncertainty of the estimate. RateLo
// and RateHi bound the central 95% credible interval of the Beta
// posterior the PATCH path maintains (estimate.CredibleInterval over the
// posterior mean and its pseudo-count weight), so clients can distinguish
// a juror whose ε = 0.2 rests on ten virtual prior tasks from one whose
// rests on a thousand observed votes.
type PoolJurorJSON struct {
	ID         string  `json:"id"`
	ErrorRate  float64 `json:"error_rate"`
	RateLo     float64 `json:"rate_lo,omitempty"`
	RateHi     float64 `json:"rate_hi,omitempty"`
	Cost       float64 `json:"cost,omitempty"`
	WrongVotes int64   `json:"wrong_votes,omitempty"`
	TotalVotes int64   `json:"total_votes,omitempty"`
}

// PoolResponse describes one pool snapshot. GET /v1/pools/{name} includes
// Jurors; the GET /v1/pools listing and the PUT/PATCH acknowledgements
// omit them.
type PoolResponse struct {
	Name      string          `json:"name"`
	Version   uint64          `json:"version"`
	Size      int             `json:"size"`
	UpdatedAt string          `json:"updated_at"`
	Jurors    []PoolJurorJSON `json:"jurors,omitempty"`
}

// PoolListResponse is the body of GET /v1/pools.
type PoolListResponse struct {
	Pools []PoolResponse `json:"pools"`
}

// PutJurorsRequest is the body of PUT /v1/pools/{name}/jurors: the full
// replacement juror set.
type PutJurorsRequest struct {
	Jurors []dataio.JurorJSON `json:"jurors"`
}

// VotesJSON is a batch of observed voting outcomes for one juror.
type VotesJSON struct {
	// Wrong counts votes cast against the resolved truth.
	Wrong int64 `json:"wrong"`
	// Total counts votes on tasks whose truth resolved.
	Total int64 `json:"total"`
}

// JurorUpdateJSON is one update inside PATCH /v1/pools/{name}/jurors.
// See JurorUpdate for the semantics; pointer fields distinguish "absent"
// from zero values.
type JurorUpdateJSON struct {
	ID        string     `json:"id"`
	ErrorRate *float64   `json:"error_rate,omitempty"`
	Cost      *float64   `json:"cost,omitempty"`
	Votes     *VotesJSON `json:"votes,omitempty"`
	Remove    bool       `json:"remove,omitempty"`
}

// PatchJurorsRequest is the body of PATCH /v1/pools/{name}/jurors.
type PatchJurorsRequest struct {
	Updates []JurorUpdateJSON `json:"updates"`
}

// poolResponse builds the wire form of a snapshot.
func poolResponse(p *pool.Pool, includeJurors bool) PoolResponse {
	out := PoolResponse{
		Name:      p.Name,
		Version:   p.Version,
		Size:      p.Size(),
		UpdatedAt: p.UpdatedAt.Format(time.RFC3339Nano),
	}
	if includeJurors {
		intervals := p.CredibleIntervals()
		out.Jurors = make([]PoolJurorJSON, p.Size())
		for i, m := range p.Jurors() {
			out.Jurors[i] = PoolJurorJSON{
				ID:         m.ID,
				ErrorRate:  m.ErrorRate,
				RateLo:     intervals[i].Lo,
				RateHi:     intervals[i].Hi,
				Cost:       m.Cost,
				WrongVotes: m.WrongVotes,
				TotalVotes: m.TotalVotes,
			}
		}
	}
	return out
}
