package pool

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

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

func TestStorePutCreatesVersionedPool(t *testing.T) {
	s := NewStore()
	p, err := s.Put("crowd", testJurors(5))
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 1 || p.Size() != 5 {
		t.Fatalf("got version %d size %d, want 1/5", p.Version, p.Size())
	}
	// Replacement bumps the version; it never resets.
	p2, err := s.Put("crowd", testJurors(3))
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
		if _, err := s.Put("crowd", jurors); err == nil {
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
	p, err := s.Put("crowd", jurors)
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
	if got := p.Jurors()[0].ID; got != "c" {
		t.Errorf("insertion order lost: first member %q", got)
	}
}

func TestStorePatchSetRemoveInsert(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("crowd", testJurors(4)); err != nil {
		t.Fatal(err)
	}
	p, err := s.Patch("crowd", []JurorUpdate{
		{ID: "j000", ErrorRate: f64(0.42)},
		{ID: "j001", Remove: true},
		{ID: "new", ErrorRate: f64(0.2), Cost: f64(0.9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 2 || p.Size() != 4 {
		t.Fatalf("got version %d size %d, want 2/4", p.Version, p.Size())
	}
	byID := map[string]PoolJuror{}
	for _, m := range p.Jurors() {
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
	if _, err := s.Put("crowd", []jury.Juror{{ID: "a", ErrorRate: 0.3}, {ID: "b", ErrorRate: 0.4}}); err != nil {
		t.Fatal(err)
	}
	p, err := s.Patch("crowd", []JurorUpdate{
		{ID: "a", Votes: &VoteObservation{Wrong: 0, Total: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var a PoolJuror
	for _, m := range p.Jurors() {
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
	p, err = s.Patch("crowd", []JurorUpdate{
		{ID: "a", Votes: &VoteObservation{Wrong: 3, Total: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Jurors() {
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
	p, err = s.Patch("crowd", []JurorUpdate{{ID: "a", ErrorRate: f64(0.25)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Jurors() {
		if m.ID == "a" && (m.WrongVotes != 0 || m.TotalVotes != 0) {
			t.Errorf("vote record not reset: %d/%d", m.WrongVotes, m.TotalVotes)
		}
	}
}

func TestStorePatchRejections(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("crowd", testJurors(2)); err != nil {
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
		if _, err := s.Patch(tc.pool, tc.ups); err == nil {
			t.Errorf("%s: patch accepted", tc.name)
		}
		// A rejected patch must be fully atomic: same snapshot published.
		after, _ := s.Get("crowd")
		if before != after {
			t.Errorf("%s: rejected patch published a new snapshot", tc.name)
		}
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("crowd", testJurors(2)); err != nil {
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
		if _, err := s.Put(name, testJurors(2)); err != nil {
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
// internally consistent — version, member count, and sorted view all from
// one publication.
func TestStoreConcurrentReadersSeeConsistentSnapshots(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("crowd", testJurors(9)); err != nil {
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
				_, err := s.Patch("crowd", []JurorUpdate{
					{ID: fmt.Sprintf("j%03d", (w*rounds+i)%9), Votes: &VoteObservation{Wrong: int64(i % 2), Total: 1}},
				})
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
	if _, err := s.Patch("ghost", []JurorUpdate{{ID: "x"}}); !errors.Is(err, ErrPoolNotFound) {
		t.Errorf("missing pool error = %v", err)
	}
	if _, err := s.Put("crowd", testJurors(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Patch("crowd", nil); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("empty patch error = %v", err)
	}
	if _, err := s.Patch("crowd", []JurorUpdate{{ID: "ghost", Cost: f64(1)}}); !errors.Is(err, ErrUnknownJuror) {
		t.Errorf("unknown juror error = %v", err)
	}
}

func BenchmarkPoolSnapshot(b *testing.B) {
	s := NewStore()
	if _, err := s.Put("crowd", testJurors(1001)); err != nil {
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
	if _, err := s.Put("crowd", testJurors(101)); err != nil {
		b.Fatal(err)
	}
	up := []JurorUpdate{{ID: "j050", Votes: &VoteObservation{Wrong: 1, Total: 4}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Patch("crowd", up); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStorePutRejectsDuplicateIDs(t *testing.T) {
	s := NewStore()
	_, err := s.Put("crowd", []jury.Juror{
		{ID: "a", ErrorRate: 0.1},
		{ID: "b", ErrorRate: 0.2},
		{ID: "a", ErrorRate: 0.3},
	})
	if !errors.Is(err, ErrDuplicateJuror) {
		t.Fatalf("duplicate-id put error = %v, want ErrDuplicateJuror", err)
	}
	if s.Len() != 0 {
		t.Fatal("rejected put published a pool")
	}
}

func TestStoreVersionSurvivesDeleteAndRecreate(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("crowd", testJurors(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Patch("crowd", []JurorUpdate{{ID: "j000", ErrorRate: f64(0.2)}}); err != nil {
		t.Fatal(err)
	}
	if !s.Delete("crowd") {
		t.Fatal("delete failed")
	}
	p, err := s.Put("crowd", testJurors(2))
	if err != nil {
		t.Fatal(err)
	}
	// The sequence continues past the deleted pool's v2: a client that
	// cached v2 must see the re-created pool as newer, not stale.
	if p.Version != 3 {
		t.Fatalf("re-created pool version %d, want 3", p.Version)
	}
}

// TestSortedViewMatchesStableSort checks every snapshot's ε view against
// core.SortedByErrorRate of its members: after a PUT, after each step of
// a random PATCH sequence and through Rebuild, on pools whose ε values
// tie heavily and whose insertion order is not ID order.
func TestSortedViewMatchesStableSort(t *testing.T) {
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	rng := rand.New(rand.NewSource(11))
	check := func(p *Pool, where string) {
		t.Helper()
		cands := make([]jury.Juror, p.Size())
		for i, m := range p.Jurors() {
			cands[i] = m.Juror
		}
		if want := core.SortedByErrorRate(cands); !slices.Equal(p.Sorted(), want) {
			t.Fatalf("%s: sorted view diverges from core.SortedByErrorRate:\ngot  %v\nwant %v", where, p.Sorted(), want)
		}
		if r, err := Rebuild(p.Name, p.Version, p.UpdatedAt, slices.Clone(p.Jurors())); err != nil || !slices.Equal(r.Sorted(), p.Sorted()) {
			t.Fatalf("%s: Rebuild sorts differently (err %v)", where, err)
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		if trial == 0 {
			n = 1001
		}
		jurors := make([]jury.Juror, n)
		for i, k := range rng.Perm(n) {
			jurors[i] = jury.Juror{ID: fmt.Sprintf("j%d", k), ErrorRate: rates[rng.Intn(len(rates))], Cost: float64(rng.Intn(3))}
		}
		s := NewStore()
		p, err := s.Put("crowd", jurors)
		if err != nil {
			t.Fatal(err)
		}
		check(p, fmt.Sprintf("trial %d put", trial))
		fresh := n
		for step := 0; step < 25; step++ {
			members := p.Jurors()
			k := 1 + rng.Intn(min(4, len(members)))
			var ups []JurorUpdate
			for _, i := range rng.Perm(len(members))[:k] {
				id := members[i].ID
				switch op := rng.Intn(4); {
				case op == 0:
					ups = append(ups, JurorUpdate{ID: id, ErrorRate: f64(rates[rng.Intn(len(rates))])})
				case op == 1:
					total := int64(1 + rng.Intn(10))
					ups = append(ups, JurorUpdate{ID: id, Votes: &VoteObservation{Wrong: rng.Int63n(total + 1), Total: total}})
				case op == 2 && len(members) > k:
					ups = append(ups, JurorUpdate{ID: id, Remove: true})
				default:
					ups = append(ups, JurorUpdate{ID: fmt.Sprintf("j%d", fresh), ErrorRate: f64(rates[rng.Intn(len(rates))])})
					fresh++
				}
			}
			if p, err = s.Patch("crowd", ups); err != nil {
				t.Fatal(err)
			}
			check(p, fmt.Sprintf("trial %d patch %d", trial, step))
		}
	}
}
