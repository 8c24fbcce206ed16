package pool

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"juryselect/internal/core"
	"juryselect/internal/estimate"
	"juryselect/jury"
)

func testJurors(n int) []jury.Juror {
	out := make([]jury.Juror, n)
	for i := range out {
		out[i] = jury.Juror{
			ID:        fmt.Sprintf("j%03d", i),
			ErrorRate: 0.05 + 0.9*float64(i)/float64(n),
			Cost:      0.1 + float64(i%7)*0.05,
		}
	}
	return out
}

func f64(v float64) *float64 { return &v }

// members returns p's members in insertion order.
func members(p *Pool) []PoolJuror {
	out := make([]PoolJuror, p.Size())
	for i := range out {
		out[i] = p.Member(i)
	}
	return out
}

func TestStorePutCreatesVersionedPool(t *testing.T) {
	s := NewStore()
	p, err := s.PutAt("crowd", testJurors(5), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 1 || p.Size() != 5 {
		t.Fatalf("got version %d size %d, want 1/5", p.Version, p.Size())
	}
	// Replacement bumps the version; it never resets.
	p2, err := s.PutAt("crowd", testJurors(3), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Version != 2 || p2.Size() != 3 {
		t.Fatalf("got version %d size %d, want 2/3", p2.Version, p2.Size())
	}
	// The first snapshot is unaffected.
	if p.Version != 1 || p.Size() != 5 {
		t.Fatalf("old snapshot mutated: version %d size %d", p.Version, p.Size())
	}
}

func TestStorePutRejectsInvalidJurors(t *testing.T) {
	s := NewStore()
	cases := [][]jury.Juror{
		nil,
		{{ID: "bad", ErrorRate: 0}},
		{{ID: "bad", ErrorRate: 1}},
		{{ID: "bad", ErrorRate: math.NaN()}},
		{{ID: "bad", ErrorRate: 0.5, Cost: -1}},
	}
	for i, jurors := range cases {
		if _, err := s.PutAt("crowd", jurors, time.Now()); err == nil {
			t.Errorf("case %d: invalid jurors accepted", i)
		}
	}
	if s.Len() != 0 {
		t.Errorf("failed puts left %d pools", s.Len())
	}
}

func TestStoreSortedViewIsSorted(t *testing.T) {
	s := NewStore()
	jurors := []jury.Juror{
		{ID: "c", ErrorRate: 0.3},
		{ID: "a", ErrorRate: 0.1},
		{ID: "b", ErrorRate: 0.2},
	}
	p, err := s.PutAt("crowd", jurors, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	sorted := p.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].ErrorRate > sorted[i].ErrorRate {
			t.Fatalf("sorted view out of order: %v", sorted)
		}
	}
	// Insertion order preserved on the member view.
	if got := p.Member(0).ID; got != "c" {
		t.Errorf("insertion order lost: first member %q", got)
	}
}

func TestStorePatchSetRemoveInsert(t *testing.T) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(4), time.Now()); err != nil {
		t.Fatal(err)
	}
	p, err := s.PatchAt("crowd", []JurorUpdate{
		{ID: "j000", ErrorRate: f64(0.42)},
		{ID: "j001", Remove: true},
		{ID: "new", ErrorRate: f64(0.2), Cost: f64(0.9)},
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 2 || p.Size() != 4 {
		t.Fatalf("got version %d size %d, want 2/4", p.Version, p.Size())
	}
	byID := map[string]PoolJuror{}
	for _, m := range members(p) {
		byID[m.ID] = m
	}
	if byID["j000"].ErrorRate != 0.42 {
		t.Errorf("direct set: ε = %g, want 0.42", byID["j000"].ErrorRate)
	}
	if _, ok := byID["j001"]; ok {
		t.Error("removed juror still present")
	}
	if got := byID["new"]; got.ErrorRate != 0.2 || got.Cost != 0.9 {
		t.Errorf("inserted juror = %+v", got)
	}
}

func TestStorePatchVotesReestimateRate(t *testing.T) {
	s := NewStore()
	if _, err := s.PutAt("crowd", []jury.Juror{{ID: "a", ErrorRate: 0.3}, {ID: "b", ErrorRate: 0.4}}, time.Now()); err != nil {
		t.Fatal(err)
	}
	p, err := s.PatchAt("crowd", []JurorUpdate{
		{ID: "a", Votes: &VoteObservation{Wrong: 0, Total: 20}},
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	var a PoolJuror
	for _, m := range members(p) {
		if m.ID == "a" {
			a = m
		}
	}
	want, err := estimate.PosteriorRate(0.3, estimate.DefaultPriorWeight, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.ErrorRate != want {
		t.Errorf("posterior ε = %g, want %g", a.ErrorRate, want)
	}
	if a.WrongVotes != 0 || a.TotalVotes != 20 {
		t.Errorf("vote record = %d/%d, want 0/20", a.WrongVotes, a.TotalVotes)
	}

	// A second batch weights the prior by the accumulated record: the
	// result equals one concatenated batch from the original prior.
	p, err = s.PatchAt("crowd", []JurorUpdate{
		{ID: "a", Votes: &VoteObservation{Wrong: 3, Total: 10}},
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members(p) {
		if m.ID == "a" {
			a = m
		}
	}
	oneShot, err := estimate.PosteriorRate(0.3, estimate.DefaultPriorWeight, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.ErrorRate-oneShot) > 1e-15 {
		t.Errorf("sequential batches ε = %g, one-shot %g", a.ErrorRate, oneShot)
	}
	// A direct rate set resets the record: the new rate is a fresh prior.
	p, err = s.PatchAt("crowd", []JurorUpdate{{ID: "a", ErrorRate: f64(0.25)}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members(p) {
		if m.ID == "a" && (m.WrongVotes != 0 || m.TotalVotes != 0) {
			t.Errorf("vote record not reset: %d/%d", m.WrongVotes, m.TotalVotes)
		}
	}
}

func TestStorePatchRejections(t *testing.T) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(2), time.Now()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pool string
		ups  []JurorUpdate
	}{
		{"missing pool", "ghost", []JurorUpdate{{ID: "x", ErrorRate: f64(0.1)}}},
		{"no updates", "crowd", nil},
		{"unknown id without rate", "crowd", []JurorUpdate{{ID: "ghost", Cost: f64(1)}}},
		{"remove unknown", "crowd", []JurorUpdate{{ID: "ghost", Remove: true}}},
		{"invalid rate", "crowd", []JurorUpdate{{ID: "j000", ErrorRate: f64(1.5)}}},
		{"invalid votes", "crowd", []JurorUpdate{{ID: "j000", Votes: &VoteObservation{Wrong: 5, Total: 2}}}},
		{"would empty pool", "crowd", []JurorUpdate{{ID: "j000", Remove: true}, {ID: "j001", Remove: true}}},
	}
	for _, tc := range cases {
		before, _ := s.Get("crowd")
		if _, err := s.PatchAt(tc.pool, tc.ups, time.Now()); err == nil {
			t.Errorf("%s: patch accepted", tc.name)
		}
		// A rejected patch must be fully atomic: same snapshot published.
		after, _ := s.Get("crowd")
		if before != after {
			t.Errorf("%s: rejected patch published a new snapshot", tc.name)
		}
	}
}

// TestStorePatchBoundsVoteTotals: a juror's accumulated record may reach
// math.MaxInt64 but never pass it. A patch that would, in one batch or
// over several, is rejected with ErrVoteOverflow naming the juror and
// the pool; the record it would have wrapped stays as it was.
func TestStorePatchBoundsVoteTotals(t *testing.T) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(2), time.Now()); err != nil {
		t.Fatal(err)
	}
	edge := []JurorUpdate{{ID: "j000", Votes: &VoteObservation{Total: math.MaxInt64 - 1}},
		{ID: "j000", Votes: &VoteObservation{Wrong: 1, Total: 1}}}
	p, err := s.PatchAt("crowd", edge, time.Now())
	if err != nil {
		t.Fatalf("patch to the int64 edge: %v", err)
	}
	if m := p.Member(0); m.WrongVotes != 1 || m.TotalVotes != math.MaxInt64 {
		t.Fatalf("record %d/%d, want 1/MaxInt64", m.WrongVotes, m.TotalVotes)
	}
	for _, ups := range [][]JurorUpdate{
		{{ID: "j000", Votes: &VoteObservation{Total: 1}}},
		{{ID: "j001", Votes: &VoteObservation{Total: math.MaxInt64}}, {ID: "j001", Votes: &VoteObservation{Total: math.MaxInt64}}},
	} {
		_, err := s.PatchAt("crowd", ups, time.Now())
		if !errors.Is(err, ErrVoteOverflow) || !strings.Contains(err.Error(), `"crowd"`) ||
			!strings.Contains(err.Error(), `"`+ups[0].ID+`"`) {
			t.Fatalf("overflowing patch error = %v, want ErrVoteOverflow naming the juror and the pool", err)
		}
		if cur, _ := s.Get("crowd"); cur != p {
			t.Fatal("rejected patch published a new snapshot")
		}
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(2), time.Now()); err != nil {
		t.Fatal(err)
	}
	if !s.Delete("crowd") {
		t.Fatal("delete reported missing pool")
	}
	if s.Delete("crowd") {
		t.Fatal("double delete reported success")
	}
	if _, ok := s.Get("crowd"); ok {
		t.Fatal("deleted pool still readable")
	}
}

func TestStoreListSortedByName(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := s.PutAt(name, testJurors(2), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	if len(got) != 3 || got[0].Name != "alpha" || got[1].Name != "mid" || got[2].Name != "zeta" {
		names := make([]string, len(got))
		for i, p := range got {
			names[i] = p.Name
		}
		t.Fatalf("list order %v", names)
	}
}

// TestStoreConcurrentReadersSeeConsistentSnapshots hammers Get/Patch/Put
// concurrently (run with -race): every snapshot a reader observes must be
// internally consistent — version, member count, sorted view, members in
// insertion order and their credible intervals all from one publication.
func TestStoreConcurrentReadersSeeConsistentSnapshots(t *testing.T) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(9), time.Now()); err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 2, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := s.PatchAt("crowd", []JurorUpdate{
					{ID: fmt.Sprintf("j%03d", (w*rounds+i)%9), Votes: &VoteObservation{Wrong: int64(i % 2), Total: 1}},
				}, time.Now())
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for i := 0; i < rounds; i++ {
				p, ok := s.Get("crowd")
				if !ok {
					t.Error("pool vanished")
					return
				}
				if p.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", p.Version, lastVersion)
					return
				}
				lastVersion = p.Version
				if len(p.Sorted()) != p.Size() {
					t.Errorf("torn snapshot: %d sorted vs %d members", len(p.Sorted()), p.Size())
					return
				}
				for k := 1; k < len(p.Sorted()); k++ {
					if p.Sorted()[k-1].ErrorRate > p.Sorted()[k].ErrorRate {
						t.Error("torn snapshot: sorted view out of order")
						return
					}
				}
				var votes int64
				for k := range p.Size() {
					votes += p.Member(k).TotalVotes
				}
				if want := int64(p.Version - 1); votes != want || len(p.CredibleIntervals()) != p.Size() {
					t.Errorf("torn snapshot: v%d holds %d votes and %d intervals for %d members",
						p.Version, votes, len(p.CredibleIntervals()), p.Size())
					return
				}
			}
		}()
	}
	wg.Wait()
	p, _ := s.Get("crowd")
	if want := uint64(1 + writers*rounds); p.Version != want {
		t.Errorf("final version %d, want %d", p.Version, want)
	}
}

func TestStoreErrorsAreTyped(t *testing.T) {
	s := NewStore()
	if _, err := s.PatchAt("ghost", []JurorUpdate{{ID: "x"}}, time.Now()); !errors.Is(err, ErrPoolNotFound) {
		t.Errorf("missing pool error = %v", err)
	}
	if _, err := s.PutAt("crowd", testJurors(2), time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PatchAt("crowd", nil, time.Now()); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("empty patch error = %v", err)
	}
	if _, err := s.PatchAt("crowd", []JurorUpdate{{ID: "ghost", Cost: f64(1)}}, time.Now()); !errors.Is(err, ErrUnknownJuror) {
		t.Errorf("unknown juror error = %v", err)
	}
}

func BenchmarkPoolSnapshot(b *testing.B) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(1001), time.Now()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := s.Get("crowd")
		if !ok || p.Size() != 1001 {
			b.Fatal("bad snapshot")
		}
	}
}

func BenchmarkPoolPatch(b *testing.B) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(101), time.Now()); err != nil {
		b.Fatal(err)
	}
	up := []JurorUpdate{{ID: "j050", Votes: &VoteObservation{Wrong: 1, Total: 4}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PatchAt("crowd", up, time.Now()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolPatchRemoves times one PATCH removing 1 or n/2 members,
// every other one, of a 20,001-juror pool: a remove marks its position,
// so the pair should differ by the removes' own cost, not by n per
// remove.
func BenchmarkPoolPatchRemoves(b *testing.B) {
	const n = 20001
	jurors := testJurors(n)
	for _, k := range []int{1, n / 2} {
		ups := make([]JurorUpdate, k)
		for i := range ups {
			ups[i] = JurorUpdate{ID: jurors[2*i].ID, Remove: true}
		}
		b.Run(fmt.Sprintf("removes=%d", k), func(b *testing.B) {
			s := NewStore()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := s.PutAt("crowd", jurors, time.Now()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.PatchAt("crowd", ups, time.Now()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestStorePutRejectsDuplicateIDs(t *testing.T) {
	s := NewStore()
	_, err := s.PutAt("crowd", []jury.Juror{
		{ID: "a", ErrorRate: 0.1},
		{ID: "b", ErrorRate: 0.2},
		{ID: "a", ErrorRate: 0.3},
	}, time.Now())
	if !errors.Is(err, ErrDuplicateJuror) {
		t.Fatalf("duplicate-id put error = %v, want ErrDuplicateJuror", err)
	}
	if s.Len() != 0 {
		t.Fatal("rejected put published a pool")
	}
}

func TestStoreVersionSurvivesDeleteAndRecreate(t *testing.T) {
	s := NewStore()
	if _, err := s.PutAt("crowd", testJurors(3), time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PatchAt("crowd", []JurorUpdate{{ID: "j000", ErrorRate: f64(0.2)}}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if !s.Delete("crowd") {
		t.Fatal("delete failed")
	}
	p, err := s.PutAt("crowd", testJurors(2), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// The sequence continues past the deleted pool's v2: a client that
	// cached v2 must see the re-created pool as newer, not stale.
	if p.Version != 3 {
		t.Fatalf("re-created pool version %d, want 3", p.Version)
	}
}

// modelPut and modelPatch are the insertion-order write path over
// []PoolJuror that the store ran before it kept each juror once, kept as
// the model the store must agree with.
func modelPut(jurors []jury.Juror) ([]PoolJuror, error) {
	if err := core.ValidateCandidates(jurors); err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(jurors))
	members := make([]PoolJuror, len(jurors))
	for i, j := range jurors {
		if _, dup := seen[j.ID]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateJuror, j.ID)
		}
		seen[j.ID] = struct{}{}
		members[i] = PoolJuror{Juror: j}
	}
	return members, nil
}

func modelPatch(name string, cur []PoolJuror, updates []JurorUpdate) ([]PoolJuror, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	members := append([]PoolJuror(nil), cur...)
	index := make(map[string]int, len(members))
	for i, m := range members {
		index[m.ID] = i
	}
	for _, up := range updates {
		i, exists := index[up.ID]
		switch {
		case up.Remove:
			if !exists {
				return nil, fmt.Errorf("%w: %q", ErrUnknownJuror, up.ID)
			}
			members = append(members[:i], members[i+1:]...)
			delete(index, up.ID)
			for k := i; k < len(members); k++ {
				index[members[k].ID] = k
			}
			continue
		case !exists:
			if up.ErrorRate == nil {
				return nil, fmt.Errorf("%w: %q (set error_rate to insert)", ErrUnknownJuror, up.ID)
			}
			members = append(members, PoolJuror{Juror: jury.Juror{ID: up.ID}})
			i = len(members) - 1
			index[up.ID] = i
		}
		m := &members[i]
		if up.ErrorRate != nil {
			m.ErrorRate = *up.ErrorRate
			m.WrongVotes, m.TotalVotes = 0, 0
		}
		if up.Cost != nil {
			m.Cost = *up.Cost
		}
		if v := up.Votes; v != nil {
			weight := estimate.DefaultPriorWeight + float64(m.TotalVotes)
			rate, err := estimate.PosteriorRate(m.ErrorRate, weight, v.Wrong, v.Total)
			if err != nil {
				return nil, fmt.Errorf("pool: juror %q: %w", up.ID, err)
			}
			if v.Total > math.MaxInt64-m.TotalVotes {
				return nil, fmt.Errorf("%w: juror %q of pool %q", ErrVoteOverflow, up.ID, name)
			}
			m.ErrorRate = rate
			m.WrongVotes += v.Wrong
			m.TotalVotes += v.Total
		}
		if err := m.Juror.Validate(); err != nil {
			return nil, err
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("pool: patch would empty pool %q: %w", name, core.ErrNoCandidates)
	}
	return members, nil
}

// modelIntervals is CredibleIntervals computed over model members.
func modelIntervals(members []PoolJuror) []RateInterval {
	out := make([]RateInterval, len(members))
	for i, m := range members {
		lo, hi, err := estimate.CredibleInterval(m.ErrorRate,
			estimate.DefaultPriorWeight+float64(m.TotalVotes), estimate.DefaultCredibleLevel)
		if err == nil {
			out[i] = RateInterval{Lo: lo, Hi: hi}
		}
	}
	return out
}

// randomPatch draws one patch over the model's members: rate, cost and
// vote updates, removes and inserts, one ID named twice (remove then
// re-insert, insert then votes, insert then remove), and now and then an
// update the store must reject (vote totals past math.MaxInt64 among
// them) or a remove-heavy patch: about half the members removed in
// random order, some re-inserted right away or at the patch's end.
func randomPatch(rng *rand.Rand, model []PoolJuror, rates []float64, fresh *int) []JurorUpdate {
	rate := func() *float64 { return f64(rates[rng.Intn(len(rates))]) }
	votes := func() *VoteObservation {
		total := int64(1 + rng.Intn(10))
		return &VoteObservation{Wrong: rng.Int63n(total + 1), Total: total}
	}
	newID := func() string {
		*fresh++
		return fmt.Sprintf("j%d", *fresh)
	}
	if rng.Intn(40) == 0 {
		return nil
	}
	if rng.Intn(40) == 0 {
		ups := make([]JurorUpdate, len(model))
		for i, m := range model {
			ups[i] = JurorUpdate{ID: m.ID, Remove: true}
		}
		return ups
	}
	if rng.Intn(6) == 0 {
		var ups, again []JurorUpdate
		for _, i := range rng.Perm(len(model))[:(len(model)+1)/2] {
			ups = append(ups, JurorUpdate{ID: model[i].ID, Remove: true})
			switch rng.Intn(8) {
			case 0:
				ups = append(ups, JurorUpdate{ID: model[i].ID, ErrorRate: rate()})
			case 1:
				again = append(again, JurorUpdate{ID: model[i].ID, ErrorRate: rate(), Votes: votes()})
			case 2:
				ups = append(ups, JurorUpdate{ID: newID(), ErrorRate: rate()})
			}
		}
		return append(ups, again...)
	}
	var ups []JurorUpdate
	for k := 1 + rng.Intn(4); k > 0; k-- {
		id := model[rng.Intn(len(model))].ID
		switch op := rng.Intn(24); {
		case op < 4:
			ups = append(ups, JurorUpdate{ID: id, ErrorRate: rate()})
		case op < 8:
			ups = append(ups, JurorUpdate{ID: id, Votes: votes()})
		case op < 10:
			ups = append(ups, JurorUpdate{ID: id, Cost: f64(float64(rng.Intn(3)))})
		case op < 13:
			ups = append(ups, JurorUpdate{ID: id, Remove: true})
		case op < 16:
			ups = append(ups, JurorUpdate{ID: newID(), ErrorRate: rate(), Cost: f64(float64(rng.Intn(3)))})
		case op < 18:
			ups = append(ups, JurorUpdate{ID: id, Remove: true}, JurorUpdate{ID: id, ErrorRate: rate(), Votes: votes()})
		case op < 20:
			id := newID()
			ups = append(ups, JurorUpdate{ID: id, ErrorRate: rate()}, JurorUpdate{ID: id, Votes: votes()})
		case op < 21:
			id := newID()
			ups = append(ups, JurorUpdate{ID: id, ErrorRate: rate()}, JurorUpdate{ID: id, Remove: true})
		case op < 22:
			ups = append(ups, JurorUpdate{ID: newID(), Cost: f64(1)}) // unknown, no rate
		case op < 23 && rng.Intn(2) == 0:
			ups = append(ups, JurorUpdate{ID: id, Votes: &VoteObservation{Total: math.MaxInt64 - rng.Int63n(3)}})
		case op < 23:
			ups = append(ups, JurorUpdate{ID: id, ErrorRate: f64(1.5)})
		default:
			ups = append(ups, JurorUpdate{ID: id, Votes: &VoteObservation{Wrong: 3, Total: 2}})
		}
	}
	return ups
}

// randomJurors draws n jurors whose ε values tie heavily and whose
// insertion order is not ID order; now and then one repeats an ID or has
// an invalid rate, which a PUT must reject.
func randomJurors(rng *rand.Rand, n int, rates []float64, fresh *int) []jury.Juror {
	jurors := make([]jury.Juror, n)
	for i, k := range rng.Perm(n) {
		jurors[i] = jury.Juror{ID: fmt.Sprintf("j%d", *fresh+k), ErrorRate: rates[rng.Intn(len(rates))], Cost: float64(rng.Intn(3))}
	}
	*fresh += n
	switch rng.Intn(12) {
	case 0:
		jurors[rng.Intn(n)].ID = jurors[rng.Intn(n)].ID
	case 1:
		jurors[rng.Intn(n)].ErrorRate = 0
	}
	return jurors
}

// TestSortedViewMatchesStableSort drives random PUT and PATCH sequences
// through the store and through modelPut/modelPatch. At every step the
// store must give what the model gives: the same members in insertion
// order with their vote records (kept only while one is non-zero), a
// sorted view equal to core.SortedByErrorRate of those members, the same
// credible intervals, and the same error text for a rejected write,
// which publishes nothing. Rebuild of the members must reproduce the
// version.
func TestSortedViewMatchesStableSort(t *testing.T) {
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	rng := rand.New(rand.NewSource(11))
	check := func(p *Pool, want []PoolJuror, where string) {
		t.Helper()
		if got := members(p); !slices.Equal(got, want) {
			t.Fatalf("%s: members diverge from the model:\ngot  %v\nwant %v", where, got, want)
		}
		cands := make([]jury.Juror, len(want))
		votes := make([]VoteObservation, len(want))
		recorded := false
		for i, m := range want {
			cands[i], votes[i] = m.Juror, VoteObservation{Wrong: m.WrongVotes, Total: m.TotalVotes}
			recorded = recorded || m.WrongVotes != 0 || m.TotalVotes != 0
		}
		if w := core.SortedByErrorRate(cands); !slices.Equal(p.Sorted(), w) {
			t.Fatalf("%s: sorted view diverges from core.SortedByErrorRate:\ngot  %v\nwant %v", where, p.Sorted(), w)
		}
		if (p.votes != nil) != recorded {
			t.Fatalf("%s: vote records kept = %v, some record non-zero = %v", where, p.votes != nil, recorded)
		}
		if !slices.Equal(p.CredibleIntervals(), modelIntervals(want)) {
			t.Fatalf("%s: credible intervals diverge from the model", where)
		}
		r, err := Rebuild(p.Name, p.Version, p.UpdatedAt, cands, votes)
		if err != nil || !slices.Equal(r.Sorted(), p.Sorted()) || !slices.Equal(r.order, p.order) ||
			!slices.Equal(r.votes, p.votes) || r.Version != p.Version || !r.UpdatedAt.Equal(p.UpdatedAt) {
			t.Fatalf("%s: Rebuild does not reproduce the version (err %v)", where, err)
		}
	}
	// agree requires the store and the model to accept or reject alike,
	// with the same error text, and a rejection to publish nothing.
	agree := func(s *Store, before *Pool, err, werr error, where string) bool {
		t.Helper()
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("%s: store error %v, model error %v", where, err, werr)
		}
		if cur, _ := s.Get("crowd"); err != nil && cur != before {
			t.Fatalf("%s: rejected write published a new snapshot", where)
		}
		return err == nil
	}
	rejected, overflows, bulkRemoves := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		if trial == 0 {
			n = 1001
		}
		s := NewStore()
		var (
			p     *Pool
			model []PoolJuror
			fresh int
		)
		for p == nil {
			jurors := randomJurors(rng, n, rates, &fresh)
			input := slices.Clone(jurors)
			got, err := s.PutAt("crowd", jurors, time.Now())
			want, werr := modelPut(jurors)
			if !slices.Equal(jurors, input) {
				t.Fatalf("trial %d: Put reordered or changed its input", trial)
			}
			if agree(s, nil, err, werr, fmt.Sprintf("trial %d put", trial)) {
				p, model = got, want
			}
		}
		check(p, model, fmt.Sprintf("trial %d put", trial))
		for step := 0; step < 25; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			if rng.Intn(20) == 0 {
				jurors := randomJurors(rng, 1+rng.Intn(50), rates, &fresh)
				got, err := s.PutAt("crowd", jurors, time.Now())
				want, werr := modelPut(jurors)
				if agree(s, p, err, werr, where+" put") {
					p, model = got, want
					check(p, model, where+" put")
				} else {
					rejected++
				}
				continue
			}
			ups := randomPatch(rng, model, rates, &fresh)
			got, err := s.PatchAt("crowd", ups, time.Now())
			want, werr := modelPatch("crowd", model, ups)
			if !agree(s, p, err, werr, where) {
				rejected++
				if errors.Is(err, ErrVoteOverflow) {
					overflows++
				}
				continue
			}
			if len(model)-len(want) >= 10 {
				bulkRemoves++
			}
			p, model = got, want
			check(p, model, where)
		}
	}
	if rejected == 0 || overflows == 0 || bulkRemoves == 0 {
		t.Fatalf("%d writes rejected, %d for a vote overflow; %d patches removed ten or more members", rejected, overflows, bulkRemoves)
	}
}

// TestRebuildRejectsWhatTheWritePathRejects: a snapshot's pool section
// is read from disk, so Rebuild refuses every juror set a PUT or PATCH
// could never have published.
func TestRebuildRejectsWhatTheWritePathRejects(t *testing.T) {
	j := func(id string, rate float64) jury.Juror { return jury.Juror{ID: id, ErrorRate: rate} }
	cases := []struct {
		name   string
		jurors []jury.Juror
		want   error
	}{
		{"repeated id", []jury.Juror{j("a", 0.1), j("b", 0.2), j("a", 0.3)}, ErrDuplicateJuror},
		{"no members", nil, core.ErrNoCandidates},
		{"invalid rate", []jury.Juror{j("a", 0)}, nil},
	}
	for _, tc := range cases {
		_, err := Rebuild("crowd", 3, time.Time{}, tc.jurors, nil)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: Rebuild error = %v, want %v", tc.name, err, tc.want)
		} else if !strings.Contains(err.Error(), `"crowd"`) {
			t.Errorf("%s: error %q does not name the pool", tc.name, err)
		}
	}
}

// TestPoolRetainedBytes guards the bytes a PUT pool retains: 64 pools of
// 1,001 jurors, from inputs kept alive so the ID strings are shared,
// hold at most 40 B per juror after a GC — the ε-sorted view and the
// 4-byte insertion permutation, ~37 B with the slices' size classes.
func TestPoolRetainedBytes(t *testing.T) {
	const pools, n = 64, 1001
	inputs := make([][]jury.Juror, pools)
	names := make([]string, pools)
	for i := range inputs {
		inputs[i], names[i] = testJurors(n), fmt.Sprintf("p%02d", i)
	}
	s := NewStore()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, jurors := range inputs {
		if _, err := s.PutAt(names[i], jurors, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJuror := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (pools * n)
	runtime.KeepAlive(inputs)
	if s.Len() != pools {
		t.Fatalf("store holds %d pools, want %d", s.Len(), pools)
	}
	t.Logf("%.1f B retained per juror", perJuror)
	if perJuror > 40 {
		t.Fatalf("pools retain %.1f B per juror, want at most 40", perJuror)
	}
}
