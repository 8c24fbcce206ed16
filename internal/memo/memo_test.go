package memo

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// put computes v for key unless it is resident, reporting the outcome.
func put(c *Cache[int, int], key int, hash uint64, v int) Outcome {
	_, out, _ := c.Do(key, hash, func() (int, error) { return v, nil })
	return out
}

// TestLRUEviction asserts a shard respects its capacity bound and evicts
// the least recently used key first. Every key hashes to shard 0.
func TestLRUEviction(t *testing.T) {
	c := New[int, int](Shards * 2) // 2 entries per shard
	put(c, 1, 0, 1)
	put(c, 2, 0, 2)
	if out := put(c, 1, 0, -1); out != Hit { // touch 1 → 2 becomes LRU
		t.Fatalf("key 1: outcome %d, want Hit", out)
	}
	put(c, 3, 0, 3)
	if n := c.ShardLens()[0]; n != 2 {
		t.Fatalf("shard holds %d entries, cap 2", n)
	}
	for _, k := range []int{1, 3} {
		if v, out, _ := c.Do(k, 0, nil); out != Hit || v != k {
			t.Fatalf("key %d: value %d outcome %d, want resident %d", k, v, out, k)
		}
	}
	if out := put(c, 2, 0, 2); out != Computed {
		t.Fatalf("key 2: outcome %d, want Computed (evicted as least recently used)", out)
	}
}

// TestShardCapacitySplit asserts capacity divides across the shards,
// never below one entry per shard, and that the top hash bits pick the
// shard.
func TestShardCapacitySplit(t *testing.T) {
	c := New[int, int](Shards * 2)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		put(c, i, rng.Uint64(), i)
	}
	total := 0
	for i, n := range c.ShardLens() {
		if n > 2 {
			t.Fatalf("shard %d holds %d entries, cap 2", i, n)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("cache evicted everything")
	}

	tiny := New[int, int](1)
	for sh := uint64(0); sh < Shards; sh++ {
		put(tiny, int(2*sh), sh<<(64-ShardBits), 0)
		put(tiny, int(2*sh+1), sh<<(64-ShardBits)|1, 0)
	}
	for i, n := range tiny.ShardLens() {
		if n != 1 {
			t.Fatalf("tiny cache shard %d holds %d entries, want 1", i, n)
		}
	}
}

// stampede runs n concurrent Do calls on one cold key. The compute
// function returns only once the other n-1 callers have joined its
// flight, so every outcome is forced rather than left to scheduling.
func stampede(t *testing.T, c *Cache[int, int], n int, err error) (calls int, outs []Outcome, vals []int, errs []error) {
	t.Helper()
	var mu sync.Mutex
	compute := func() (int, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		deadline := time.Now().Add(10 * time.Second)
		for c.Counts().Joined < int64(n-1) {
			if time.Now().After(deadline) {
				t.Error("joiners never arrived")
				break
			}
			runtime.Gosched()
		}
		return 42, err
	}
	outs, vals, errs = make([]Outcome, n), make([]int, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], outs[i], errs[i] = c.Do(7, 7<<60, compute)
		}(i)
	}
	wg.Wait()
	return calls, outs, vals, errs
}

// TestSingleflight asserts N concurrent callers of one cold key run
// compute once: exactly one is Computed, the rest Joined, and all share
// the value.
func TestSingleflight(t *testing.T) {
	const n = 16
	c := New[int, int](64)
	calls, outs, vals, errs := stampede(t, c, n, nil)
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	computed := 0
	for i := range outs {
		if outs[i] == Computed {
			computed++
		} else if outs[i] != Joined {
			t.Fatalf("caller %d: outcome %d, want Computed or Joined", i, outs[i])
		}
		if vals[i] != 42 || errs[i] != nil {
			t.Fatalf("caller %d: %d, %v; want 42, nil", i, vals[i], errs[i])
		}
	}
	if computed != 1 {
		t.Fatalf("%d callers Computed, want exactly 1", computed)
	}
	if got := c.Counts(); got != (Counts{Hits: 0, Computed: 1, Joined: n - 1}) {
		t.Fatalf("counts = %+v", got)
	}
	if v, out, _ := c.Do(7, 7<<60, nil); out != Hit || v != 42 {
		t.Fatalf("after the flight: %d outcome %d, want resident 42", v, out)
	}
}

// TestErrorNotCached asserts a failed compute reaches the leader and
// every joiner, and leaves the key cold.
func TestErrorNotCached(t *testing.T) {
	const n = 8
	boom := errors.New("boom")
	c := New[int, int](64)
	calls, _, _, errs := stampede(t, c, n, boom)
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	for i, err := range errs {
		if err != boom {
			t.Fatalf("caller %d: error %v, want %v", i, err, boom)
		}
	}
	for i, n := range c.ShardLens() {
		if n != 0 {
			t.Fatalf("shard %d holds %d entries after a failed flight", i, n)
		}
	}
	if out := put(c, 7, 7<<60, 1); out != Computed {
		t.Fatalf("after a failed flight: outcome %d, want Computed", out)
	}
}
