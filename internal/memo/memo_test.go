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

// TestDeleteFunc asserts DeleteFunc removes exactly the entries its
// predicate selects, on every shard, and leaves each recency ring intact:
// the shard keeps evicting its least recently used survivor afterwards.
func TestDeleteFunc(t *testing.T) {
	c := New[int, int](Shards * 3) // 3 entries per shard
	for k := 1; k <= 3; k++ {
		put(c, k, 0, k) // shard 0, ring MRU→LRU: 3 2 1
	}
	put(c, 10, 1<<(64-ShardBits), 10) // shard 1
	put(c, 11, 1<<(64-ShardBits), 11)
	var seen []int
	c.DeleteFunc(func(k int) bool {
		seen = append(seen, k)
		return k%2 == 0
	})
	if len(seen) != 5 {
		t.Fatalf("predicate saw keys %v, want all 5 resident keys once", seen)
	}
	if lens := c.ShardLens(); lens[0] != 2 || lens[1] != 1 {
		t.Fatalf("shard lens %v after dropping keys 2 and 10, want [2 1 ...]", lens[:2])
	}
	for _, k := range []int{1, 3} {
		if v, out, _ := c.Do(k, 0, nil); out != Hit || v != k {
			t.Fatalf("key %d: value %d outcome %d, want resident %d", k, v, out, k)
		}
	}
	if v, out, _ := c.Do(11, 1<<(64-ShardBits), nil); out != Hit || v != 11 {
		t.Fatalf("key 11: value %d outcome %d, want resident 11", v, out)
	}

	// Shard 0's ring is now MRU→LRU 3 1: touch 1, fill to capacity with
	// 4, then 5 must evict 3.
	if out := put(c, 1, 0, -1); out != Hit {
		t.Fatalf("key 1: outcome %d, want Hit", out)
	}
	put(c, 4, 0, 4)
	put(c, 5, 0, 5)
	if n := c.ShardLens()[0]; n != 3 {
		t.Fatalf("shard 0 holds %d entries, cap 3", n)
	}
	for _, k := range []int{1, 4, 5} {
		if _, out, _ := c.Do(k, 0, nil); out != Hit {
			t.Fatalf("key %d: outcome %d, want Hit", k, out)
		}
	}
	if out := put(c, 3, 0, 3); out != Computed {
		t.Fatalf("key 3: outcome %d, want Computed (evicted as least recently used)", out)
	}

	c.DeleteFunc(func(int) bool { return true })
	for i, n := range c.ShardLens() {
		if n != 0 {
			t.Fatalf("shard %d holds %d entries after dropping every key", i, n)
		}
	}
	if out := put(c, 1, 0, 1); out != Computed {
		t.Fatalf("key 1 after dropping every key: outcome %d, want Computed", out)
	}
}

// TestDeleteFuncSparesFlights asserts DeleteFunc leaves an in-flight
// computation alone: its predicate never sees the key, the flight still
// inserts its value, and a joiner shares that value.
func TestDeleteFuncSparesFlights(t *testing.T) {
	c := New[int, int](64)
	release := make(chan struct{})
	started := make(chan struct{})
	type result struct {
		v   int
		out Outcome
	}
	leader, joiner := make(chan result, 1), make(chan result, 1)
	go func() {
		v, out, _ := c.Do(7, 7<<60, func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		leader <- result{v, out}
	}()
	<-started
	go func() {
		v, out, _ := c.Do(7, 7<<60, func() (int, error) { return -1, nil })
		joiner <- result{v, out}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Counts().Joined < 1 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never arrived")
		}
		runtime.Gosched()
	}

	c.DeleteFunc(func(k int) bool {
		t.Errorf("predicate saw key %d; only a flight is present", k)
		return true
	})
	close(release)
	if r := <-leader; r != (result{42, Computed}) {
		t.Fatalf("leader got %+v, want 42 Computed", r)
	}
	if r := <-joiner; r != (result{42, Joined}) {
		t.Fatalf("joiner got %+v, want 42 Joined", r)
	}
	if v, out, _ := c.Do(7, 7<<60, nil); out != Hit || v != 42 {
		t.Fatalf("after the flight: %d outcome %d, want resident 42", v, out)
	}
}

// TestDeleteFuncConcurrent runs Do and DeleteFunc from several
// goroutines at once (run under -race): every Do still returns its key's
// value, and residency stays within capacity.
func TestDeleteFuncConcurrent(t *testing.T) {
	const (
		keys    = 256
		callers = 4
		calls   = 2000
	)
	c := New[int, int](keys / 2)
	hash := func(k int) uint64 { return uint64(k+1) * 0x9e3779b97f4a7c15 }
	stop := make(chan struct{})
	deleted := make(chan struct{})
	go func() {
		defer close(deleted)
		for floor := 0; ; floor = (floor + 17) % keys {
			select {
			case <-stop:
				return
			default:
			}
			c.DeleteFunc(func(k int) bool { return k < floor })
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				k := rng.Intn(keys)
				v, _, err := c.Do(k, hash(k), func() (int, error) { return 3 * k, nil })
				if err != nil || v != 3*k {
					t.Errorf("key %d: %d, %v; want %d", k, v, err, 3*k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-deleted
	total := 0
	for _, n := range c.ShardLens() {
		total += n
	}
	if total > keys/2 {
		t.Fatalf("cache holds %d entries, capacity %d", total, keys/2)
	}
}
