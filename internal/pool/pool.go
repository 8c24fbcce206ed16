// Package pool implements the versioned live juror-pool store behind
// juryd: a directory of named pools with copy-on-write snapshots
// published through one atomic pointer. Reads (the selection hot path)
// are lock-free; writes serialize on a mutex, rebuild the affected pool,
// and publish a new immutable snapshot.
//
// The package sits below both internal/server (which serves pool CRUD
// over HTTP) and internal/tasks (which journals every pool mutation to
// its write-ahead log): extracting it from the server package is what
// lets the durable task store wrap pool writes without an import cycle.
// For recovery, writes accept explicit timestamps (PutAt, PatchAt) so a
// WAL replay republishes byte-identical snapshots, and Rebuild/Install
// restore the state a compaction snapshot read in place.
package pool

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/internal/core"
	"juryselect/internal/estimate"
	"juryselect/jury"
)

// Store errors surfaced on the pool CRUD endpoints.
var (
	// ErrPoolNotFound reports a request against a pool name the store
	// does not hold.
	ErrPoolNotFound = errors.New("pool: not found")
	// ErrUnknownJuror reports a patch update addressing a juror ID not in
	// the pool and carrying no error rate to insert it with.
	ErrUnknownJuror = errors.New("pool: unknown juror")
	// ErrNoUpdates reports an empty patch.
	ErrNoUpdates = errors.New("pool: patch carries no updates")
	// ErrDuplicateJuror reports a PutAt whose juror set repeats an ID.
	// Unlike the solvers (where duplicate IDs merely make reports
	// ambiguous), the pool store addresses jurors by ID on the PATCH
	// path, so uniqueness is required at ingest.
	ErrDuplicateJuror = errors.New("pool: duplicate juror id")
	// ErrVoteOverflow reports a patch whose vote batches would carry a
	// juror's accumulated total past math.MaxInt64.
	ErrVoteOverflow = errors.New("pool: accumulated vote total overflows int64")
)

// PoolJuror is one candidate in a live pool: the model juror plus the
// cumulative voting record the PATCH path folds into its error rate.
type PoolJuror struct {
	jury.Juror
	// WrongVotes and TotalVotes accumulate the observed outcomes applied
	// via JurorUpdate.Votes. A direct ErrorRate set resets them: the new
	// rate is a fresh prior.
	WrongVotes int64
	TotalVotes int64
}

// Pool is one immutable snapshot of a named juror pool. Snapshots are
// never mutated after publication: an update builds a new Pool and swaps
// the store's directory pointer, so a reader holding a *Pool sees one
// consistent version for as long as it keeps the pointer, with no lock
// held.
//
// Each juror is stored once, in the ε-sorted view selection reads;
// insertion order is a permutation over that view, and the vote records
// are kept only once a PATCH has added one. A pool of n jurors retains
// ~37n bytes besides the ID strings.
type Pool struct {
	// Name is the pool's identifier in the store.
	Name string
	// Version increments on every successful PutAt or PatchAt, starting at 1.
	// It never resets for a given name — not even across Delete and
	// re-Put — so clients can order every snapshot they ever observed
	// under that name.
	Version uint64
	// UpdatedAt is the time the snapshot was published.
	UpdatedAt time.Time
	// sorted is the ε-ascending view selection reads, and the pool's only
	// juror array. It is validated at ingest, so
	// SelectAltruisticSnapshot runs without re-validation.
	sorted []jury.Juror
	// order is insertion order: the i-th member added is sorted[order[i]].
	order []int32
	// votes holds the members' vote records by insertion rank, or nil
	// while every record is zero, as after any PutAt.
	votes []VoteObservation
	// intervals caches the per-juror credible intervals GET responses
	// report. They are a pure function of the immutable member list, so
	// they are computed at most once per snapshot, on first use — the
	// write path (PUT/PATCH) never pays for them, and repeated GETs
	// reuse the slice.
	intervalsOnce sync.Once
	intervals     []RateInterval
}

// RateInterval bounds one juror's estimate uncertainty.
type RateInterval struct{ Lo, Hi float64 }

// CredibleIntervals returns the central 95% credible interval of each
// member's Beta-posterior error rate, in insertion order. Safe for
// concurrent use; the computation runs once per snapshot and costs
// ~10 µs per juror (two safeguarded-Newton quantile inversions), so the
// first full GET of a very large pool pays time comparable to encoding
// its response JSON, and subsequent GETs pay nothing.
func (p *Pool) CredibleIntervals() []RateInterval {
	p.intervalsOnce.Do(func() {
		out := make([]RateInterval, p.Size())
		for i := range out {
			// The pair (posterior mean, prior weight + observed votes)
			// determines the Beta posterior exactly; pool rates are
			// validated in (0,1) at ingest, so this cannot fail.
			m := p.Member(i)
			lo, hi, err := estimate.CredibleInterval(m.ErrorRate,
				estimate.DefaultPriorWeight+float64(m.TotalVotes), estimate.DefaultCredibleLevel)
			if err == nil {
				out[i] = RateInterval{Lo: lo, Hi: hi}
			}
		}
		p.intervals = out
	})
	return p.intervals
}

// Size returns the number of jurors in the snapshot.
func (p *Pool) Size() int { return len(p.sorted) }

// Member returns the i-th member in insertion order, 0 ≤ i < Size(),
// with its vote record.
func (p *Pool) Member(i int) PoolJuror {
	m := PoolJuror{Juror: p.sorted[p.order[i]]}
	if p.votes != nil {
		m.WrongVotes, m.TotalVotes = p.votes[i].Wrong, p.votes[i].Total
	}
	return m
}

// Sorted returns the validated, ε-ascending candidate view. The slice is
// shared with the snapshot and must not be mutated; it feeds
// jury.Engine.SelectAltruisticSnapshot directly.
func (p *Pool) Sorted() []jury.Juror { return p.sorted }

// VoteObservation is a batch of observed voting outcomes for one juror:
// Total tasks whose truth resolved, Wrong of them voted against it.
type VoteObservation struct {
	Wrong int64 `json:"wrong"`
	Total int64 `json:"total"`
}

// JurorUpdate is one incremental change inside a PatchAt. Exactly one
// interpretation applies, checked in this order:
//
//   - Remove drops the juror.
//   - For an ID not in the pool, ErrorRate must be set; the juror is
//     inserted (Cost defaults to 0).
//   - ErrorRate, when set, replaces the rate and resets the voting
//     record (the new rate is a fresh prior); Cost, when set, replaces
//     the requirement.
//   - Votes folds observed outcomes into the current rate via
//     estimate.PosteriorRate, with the prior weighted by
//     estimate.DefaultPriorWeight plus the record accumulated so far —
//     so a long-observed juror's estimate is dominated by its record,
//     and applying batches one at a time equals one concatenated batch.
type JurorUpdate struct {
	ID        string           `json:"id"`
	ErrorRate *float64         `json:"error_rate,omitempty"`
	Cost      *float64         `json:"cost,omitempty"`
	Votes     *VoteObservation `json:"votes,omitempty"`
	Remove    bool             `json:"remove,omitempty"`
}

// Store is a versioned directory of named juror pools with copy-on-write
// snapshots. Reads (Get, List) are lock-free: they atomically load the
// current directory pointer and index it, so the selection hot path never
// contends with writers. Writes (PutAt, PatchAt, Delete) serialize on a
// mutex, rebuild the affected pool, copy the directory, and publish it
// with one atomic pointer swap.
type Store struct {
	mu  sync.Mutex // serializes writers
	dir atomic.Pointer[map[string]*Pool]
	// lastVersion is the per-name version high-water mark, retained
	// across Delete so a re-created pool continues the sequence instead
	// of restarting at 1 (guarded by mu).
	lastVersion map[string]uint64
}

// NewStore returns an empty Store.
func NewStore() *Store {
	s := &Store{lastVersion: make(map[string]uint64)}
	dir := make(map[string]*Pool)
	s.dir.Store(&dir)
	return s
}

// Get returns the current snapshot of the named pool. The returned Pool
// is immutable; it stays consistent however long the caller holds it.
func (s *Store) Get(name string) (*Pool, bool) {
	p, ok := (*s.dir.Load())[name]
	return p, ok
}

// List returns the current snapshot of every pool, sorted by name.
func (s *Store) List() []*Pool {
	dir := *s.dir.Load()
	out := make([]*Pool, 0, len(dir))
	for _, p := range dir {
		out = append(out, p)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Len returns the number of pools.
func (s *Store) Len() int { return len(*s.dir.Load()) }

// PutAt replaces (or creates) the named pool with the given jurors,
// validating every juror at ingest, and publishes it as of at. Voting
// records start empty: a full replacement is a fresh estimate of the
// whole crowd. The version continues from the pool's previous snapshot.
// The explicit time lets WAL replay republish snapshots byte-identical
// to the original writes. The pool neither keeps nor reorders jurors.
func (s *Store) PutAt(name string, jurors []jury.Juror, at time.Time) (*Pool, error) {
	if err := validateMembers(jurors); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publish(newPool(name, s.lastVersion[name]+1, at, jurors, nil)), nil
}

// validateMembers checks a pool's juror set the way the write path
// requires it: non-empty, every juror valid, no ID repeated.
func validateMembers(jurors []jury.Juror) error {
	if err := core.ValidateCandidates(jurors); err != nil {
		return err
	}
	seen := make(map[string]struct{}, len(jurors))
	for _, j := range jurors {
		if _, dup := seen[j.ID]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateJuror, j.ID)
		}
		seen[j.ID] = struct{}{}
	}
	return nil
}

// PatchAt applies incremental updates to the named pool and publishes the
// next version as of at (see PutAt). The whole patch is atomic: any
// invalid update rejects the patch and leaves the current snapshot in
// place.
func (s *Store) PatchAt(name string, updates []JurorUpdate, at time.Time) (*Pool, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPoolNotFound, name)
	}
	// Copy-on-write: edit private copies of the members and their vote
	// records in insertion order, and publish them only when every
	// update validated. The spare capacity takes the inserts. A remove
	// only marks its position, so every index stays valid; the members
	// left are compacted once at the end, in order.
	n := cur.Size()
	members := make([]jury.Juror, n, n+len(updates))
	votes := make([]VoteObservation, n, n+len(updates))
	copy(votes, cur.votes)
	index := make(map[string]int, n)
	for i, k := range cur.order {
		members[i] = cur.sorted[k]
		index[members[i].ID] = i
	}
	removed := make([]bool, n, cap(members)) // by position
	for _, up := range updates {
		i, exists := index[up.ID]
		switch {
		case up.Remove:
			if !exists {
				return nil, fmt.Errorf("%w: %q", ErrUnknownJuror, up.ID)
			}
			removed[i] = true
			delete(index, up.ID)
			continue
		case !exists:
			if up.ErrorRate == nil {
				return nil, fmt.Errorf("%w: %q (set error_rate to insert)", ErrUnknownJuror, up.ID)
			}
			members = append(members, jury.Juror{ID: up.ID})
			votes = append(votes, VoteObservation{})
			removed = append(removed, false)
			i = len(members) - 1
			index[up.ID] = i
		}
		m, rec := &members[i], &votes[i]
		if up.ErrorRate != nil {
			m.ErrorRate = *up.ErrorRate
			*rec = VoteObservation{}
		}
		if up.Cost != nil {
			m.Cost = *up.Cost
		}
		if v := up.Votes; v != nil {
			weight := estimate.DefaultPriorWeight + float64(rec.Total)
			rate, err := estimate.PosteriorRate(m.ErrorRate, weight, v.Wrong, v.Total)
			if err != nil {
				return nil, fmt.Errorf("pool: juror %q: %w", up.ID, err)
			}
			// A batch has 0 ≤ wrong ≤ total, so a total that fits bounds
			// the wrong count too.
			if v.Total > math.MaxInt64-rec.Total {
				return nil, fmt.Errorf("%w: juror %q of pool %q", ErrVoteOverflow, up.ID, name)
			}
			m.ErrorRate = rate
			rec.Wrong += v.Wrong
			rec.Total += v.Total
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	k := 0
	for i := range members {
		if !removed[i] {
			members[k], votes[k] = members[i], votes[i]
			k++
		}
	}
	members, votes = members[:k], votes[:k]
	if len(members) == 0 {
		return nil, fmt.Errorf("pool: patch would empty pool %q: %w", name, core.ErrNoCandidates)
	}
	return s.publish(newPool(name, cur.Version+1, at, members, votes)), nil
}

// Delete removes the named pool. It reports whether the pool existed.
func (s *Store) Delete(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.dir.Load()
	if _, ok := old[name]; !ok {
		return false
	}
	next := make(map[string]*Pool, len(old)-1)
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	s.dir.Store(&next)
	return true
}

// publish swaps p into a copied directory. Callers hold s.mu.
func (s *Store) publish(p *Pool) *Pool {
	s.lastVersion[p.Name] = p.Version
	old := *s.dir.Load()
	next := make(map[string]*Pool, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[p.Name] = p
	s.dir.Store(&next)
	return p
}

// newPool builds the immutable snapshot of validated members with one
// ε sort, the one every PutAt, PatchAt, replayed record and Rebuild pays.
// votes holds the members' records in the same order, or nil; the pool
// takes ownership of it and keeps it only if some record is non-zero.
// members is only read.
func newPool(name string, version uint64, at time.Time, members []jury.Juror, votes []VoteObservation) *Pool {
	sorted, order := core.RankByErrorRate(members)
	if !slices.ContainsFunc(votes, func(v VoteObservation) bool { return v != VoteObservation{} }) {
		votes = nil
	}
	return &Pool{
		Name:      name,
		Version:   version,
		UpdatedAt: at,
		sorted:    sorted,
		order:     order,
		votes:     votes,
	}
}

// VersionFloors returns a copy of the per-name version high-water
// marks, including those of deleted pools: the part of the store state
// the live pools alone do not carry. A compaction snapshot writes them
// next to the pools, which it reads in place through List and Member.
func (s *Store) VersionFloors() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.lastVersion))
	for k, v := range s.lastVersion {
		out[k] = v
	}
	return out
}

// Rebuild returns the snapshot of a pool recovered from a compaction
// snapshot: jurors in insertion order, and votes nil or their vote
// records in the same order. The jurors are checked the way the write
// path checks them — a non-empty set of valid jurors with distinct IDs —
// and the pool is built by the same sort, so the result equals the
// snapshot the original writes published. The records are taken as
// stored, so a snapshot written before PatchAt bounded the accumulated
// totals still opens.
// jurors is only read; the pool takes ownership of votes.
func Rebuild(name string, version uint64, updatedAt time.Time, jurors []jury.Juror, votes []VoteObservation) (*Pool, error) {
	if err := validateMembers(jurors); err != nil {
		return nil, fmt.Errorf("pool: restoring %q: %w", name, err)
	}
	return newPool(name, version, updatedAt, jurors, votes), nil
}

// Install replaces the store contents with recovered pools (built by
// Rebuild, names distinct) and version floors, in one publication. Used
// once, on recovery, before the store is shared. A pool's own version
// raises its name's floor.
func (s *Store) Install(pools []*Pool, floors map[string]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := make(map[string]*Pool, len(pools))
	last := make(map[string]uint64, len(floors))
	for k, v := range floors {
		last[k] = v
	}
	for _, p := range pools {
		dir[p.Name] = p
		last[p.Name] = max(last[p.Name], p.Version)
	}
	s.lastVersion = last
	s.dir.Store(&dir)
}
