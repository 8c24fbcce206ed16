package tasks

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestShardedStoreEquivalence is the sharding property test: a
// randomized concurrent create/vote/decline workload against the
// sharded store must be trace-equivalent to a single-shard (global
// lock) store. Concretely, after the workload:
//
//   - per-task operation order and early-stop skip semantics are exactly
//     what the live store responded with (votes raced past a verdict were
//     rejected, not silently dropped), and
//   - recovering the WAL under ANY shard count — 1 shard serializes
//     every mutation on one mutex — rebuilds a byte-identical
//     fingerprint.
//
// Runs in the -race matrix for internal/tasks, so it also serves as the
// data-race probe for the lock-free read paths.
func TestShardedStoreEquivalence(t *testing.T) {
	const (
		goroutines    = 8
		tasksPerG     = 12
		votesPerTask  = 7 // > jury size for some tasks → exercises closed-task rejects
		declineEveryN = 3
	)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncBatch, Shards: 8,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPool("crowd", crowdJurors(25)); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < tasksPerG; i++ {
				spec := Spec{Pool: "crowd", TargetConfidence: 0.9}
				if rng.Intn(2) == 0 {
					spec.TargetConfidence = 1 // fixed jury: no early stop
				}
				v, err := s.Create(ctx, spec)
				if err != nil {
					errs <- err
					return
				}
				for k := 0; k < votesPerTask && k < len(v.Jurors); k++ {
					j := v.Jurors[k]
					var opErr error
					if k%declineEveryN == declineEveryN-1 {
						_, opErr = s.Decline(context.Background(), v.ID, j.ID)
					} else {
						_, opErr = s.Vote(context.Background(), v.ID, j.ID, rng.Intn(4) != 0)
					}
					// ErrTaskClosed is the early-stop skip: the posterior
					// crossed the target and later jurors' votes are refused.
					// ErrJurorReleased can follow a decline's replacement
					// shuffle. Anything else is a real failure.
					if opErr != nil && !errors.Is(opErr, ErrTaskClosed) && !errors.Is(opErr, ErrJurorReleased) {
						errs <- opErr
						return
					}
				}
			}
		}(int64(g) * 7919)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	live := storeFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover the same WAL under three configurations spanning the
	// old and new concurrency models. Every one must rebuild the exact
	// bytes the live sharded store was serving.
	for _, cfg := range []struct {
		name string
		conf Config
	}{
		{"global-lock", Config{Dir: dir, Shards: 1, Sync: SyncBatch,
			DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour}},
		{"sharded-default", Config{Dir: dir, Sync: SyncBatch,
			DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour}},
		{"sharded-wide", Config{Dir: dir, Shards: 256, Sync: SyncBatch,
			DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour}},
	} {
		r, err := Open(cfg.conf)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		got := storeFingerprint(t, r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if string(got) != string(live) {
			t.Errorf("%s recovery diverged from the live sharded store (%d vs %d bytes)",
				cfg.name, len(got), len(live))
		}
	}
}

// TestShardedConcurrentReads hammers the lock-free read paths (Get,
// List, Stats) while writers mutate, under -race: the COW snapshot
// publication must never expose a torn view.
func TestShardedConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, Shards: 4,
		DefaultJurorTimeout: time.Minute, DefaultExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	if _, err := s.PutPool("crowd", crowdJurors(15)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range s.List("") {
					got, err := s.Get(v.ID)
					if err != nil {
						t.Error(err)
						return
					}
					// A view must be internally consistent: votes_spent is
					// the count of jurors in the voted state.
					voted := 0
					for _, j := range got.Jurors {
						if j.State == JurorVoted {
							voted++
						}
					}
					if voted != got.VotesSpent {
						t.Errorf("torn view %s: %d voted jurors, votes_spent %d", got.ID, voted, got.VotesSpent)
						return
					}
				}
				s.Stats()
			}
		}()
	}
	for i := 0; i < 40; i++ {
		v, err := s.Create(ctx, Spec{Pool: "crowd"})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range v.Jurors {
			if _, err := s.Vote(context.Background(), v.ID, j.ID, true); err != nil && !errors.Is(err, ErrTaskClosed) {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
}
