package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"juryselect/internal/pool"
	"juryselect/jury"
)

// postSelect exercises the handler directly (no TCP): returns status and
// the exact response bytes as they would hit the wire.
func postSelect(h http.Handler, path string, body any) (int, []byte) {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestSelectCacheParityUnderMutation is the invalidation correctness
// proof: a cached server and an uncached server share one live store;
// a randomized sequence of PUT/PATCH/DELETE mutations interleaves with
// selects, and after every mutation each strategy's cached response —
// cold fill and warm hit alike — must be byte-identical to the freshly
// computed uncached select at the same pool version. Version-keying is
// the only invalidation mechanism under test: no entry is ever purged.
func TestSelectCacheParityUnderMutation(t *testing.T) {
	eng := jury.NewEngine(jury.BatchOptions{})
	store := pool.NewStore()
	cached := New(Config{Store: store, Engine: eng})
	uncached := New(Config{Store: store, Engine: eng, SelectCacheEntries: -1})

	rng := rand.New(rand.NewSource(7))
	randomJurors := func(n int) []jury.Juror {
		out := make([]jury.Juror, n)
		for i := range out {
			out[i] = jury.Juror{
				ID:        fmt.Sprintf("j%03d", i),
				ErrorRate: 0.02 + 0.46*rng.Float64(),
				Cost:      0.1 + rng.Float64(),
			}
		}
		return out
	}
	pools := []string{"alpha", "beta"}
	for _, name := range pools {
		if _, err := store.Put(name, randomJurors(4+rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
	}
	params := []SelectRequest{
		{Model: "altr"},
		{Model: "pay", Budget: 1.0},
		{Model: "pay", Budget: 2.5},
		{Model: "pay", Budget: 2.0, Exact: true},
	}

	for step := 0; step < 100; step++ {
		name := pools[rng.Intn(len(pools))]
		switch op := rng.Intn(8); {
		case op == 0: // full replacement
			if _, err := store.Put(name, randomJurors(4+rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		case op == 1: // delete (selects must agree on the 404 too)
			store.Delete(name)
		default: // incremental patch
			p, ok := store.Get(name)
			if !ok {
				if _, err := store.Put(name, randomJurors(4+rng.Intn(8))); err != nil {
					t.Fatal(err)
				}
				break
			}
			members := p.Jurors()
			rate := 0.02 + 0.46*rng.Float64()
			up := pool.JurorUpdate{ID: members[rng.Intn(len(members))].ID, ErrorRate: &rate}
			if _, err := store.Patch(name, []pool.JurorUpdate{up}); err != nil {
				t.Fatal(err)
			}
		}

		for _, pr := range params {
			req := pr
			req.Pool = name
			codeC, bodyC := postSelect(cached.Handler(), "/v1/select", req)
			codeU, bodyU := postSelect(uncached.Handler(), "/v1/select", req)
			if codeC != codeU {
				t.Fatalf("step %d %s %+v: cached status %d, uncached %d", step, name, pr, codeC, codeU)
			}
			if !bytes.Equal(bodyC, bodyU) {
				t.Fatalf("step %d %s %+v: cached response diverges from uncached:\ncached   %s\nuncached %s",
					step, name, pr, bodyC, bodyU)
			}
			// The warm hit must serve the very same bytes.
			codeW, bodyW := postSelect(cached.Handler(), "/v1/select", req)
			if codeW != codeC || !bytes.Equal(bodyW, bodyC) {
				t.Fatalf("step %d %s %+v: warm hit diverges from cold fill", step, name, pr)
			}
		}
	}
	if cached.cache.hits.Load() == 0 || cached.cache.misses.Load() == 0 {
		t.Fatalf("parity loop exercised no cache traffic: hits=%d misses=%d",
			cached.cache.hits.Load(), cached.cache.misses.Load())
	}
}

// TestSelectCacheStalenessUnderRace runs concurrent selects against a
// pool under continuous patching and verifies no response is torn or
// stale: whatever snapshot version a response embeds, its bytes must
// equal the select computed fresh from exactly that immutable snapshot.
// (Run under -race in CI.)
func TestSelectCacheStalenessUnderRace(t *testing.T) {
	s := New(Config{})
	store := s.Store()
	expected := make(map[uint64][]byte) // version -> uncached altr response bytes
	record := func(p *pool.Pool) {
		raw, err := s.computeSelectRaw(context.Background(),
			selectPlan{req: &SelectRequest{Pool: "crowd"}, model: "altr", kind: kindAltr, pool: p})
		if err != nil {
			t.Errorf("computing expected bytes at version %d: %v", p.Version, err)
			return
		}
		expected[p.Version] = raw
	}
	p, err := store.Put("crowd", testJurors(15))
	if err != nil {
		t.Fatal(err)
	}
	record(p)

	type observation struct {
		version uint64
		body    []byte
	}
	const (
		selectors          = 4
		selectsPerSelector = 150
		patches            = 60
	)
	obs := make([][]observation, selectors)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < selectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < selectsPerSelector; i++ {
				code, body := postSelect(s.Handler(), "/v1/select", SelectRequest{Pool: "crowd"})
				if code != http.StatusOK {
					t.Errorf("selector %d: status %d: %s", g, code, body)
					return
				}
				var resp SelectResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("selector %d: %v", g, err)
					return
				}
				obs[g] = append(obs[g], observation{version: resp.PoolVersion, body: body})
			}
		}(g)
	}
	// One patcher mutates while the selectors read; it records the
	// expected bytes of every version it publishes. The snapshots Patch
	// returns are immutable, so the recorded bytes are exact for that
	// version no matter how far the pool has moved on.
	close(start)
	for i := 0; i < patches; i++ {
		rate := 0.05 + 0.4*float64(i%10)/10
		p, err := store.Patch("crowd", []pool.JurorUpdate{{ID: "j007", ErrorRate: &rate}})
		if err != nil {
			t.Fatal(err)
		}
		record(p)
	}
	wg.Wait()

	checked := 0
	for g := range obs {
		for _, o := range obs[g] {
			want, ok := expected[o.version]
			if !ok {
				t.Fatalf("response embeds version %d that was never published", o.version)
			}
			if !bytes.Equal(o.body, want) {
				t.Fatalf("version %d: served bytes diverge from that snapshot's select:\nserved %s\nwant   %s",
					o.version, o.body, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no observations checked")
	}
}

// TestSelectCacheStampede sends M concurrent selects for one cold
// (version, params) key and asserts the engine ran exactly once: the
// flight leader computes, everyone else either joins the flight or hits
// the entry it inserted. The engine memo is disabled so every uncoalesced
// select would add its own evaluations to the counter.
func TestSelectCacheStampede(t *testing.T) {
	const m = 24
	baselineEng := jury.NewEngine(jury.BatchOptions{CacheSize: -1})
	base := New(Config{Engine: baselineEng})
	if _, err := base.Store().Put("crowd", testJurors(24)); err != nil {
		t.Fatal(err)
	}
	req := SelectRequest{Pool: "crowd", Model: "pay", Budget: 3}
	if code, body := postSelect(base.Handler(), "/v1/select", req); code != http.StatusOK {
		t.Fatalf("baseline select: status %d: %s", code, body)
	}
	baseline := baselineEng.Stats().Evaluations
	if baseline == 0 {
		t.Fatal("baseline pay select performed no engine evaluations; the stampede assertion would be vacuous")
	}

	eng := jury.NewEngine(jury.BatchOptions{CacheSize: -1})
	s := New(Config{Engine: eng})
	if _, err := s.Store().Put("crowd", testJurors(24)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, m)
	bodies := make([][]byte, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], bodies[i] = postSelect(s.Handler(), "/v1/select", req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < m; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d served different bytes than request 0", i)
		}
	}
	if got := eng.Stats().Evaluations; got != baseline {
		t.Fatalf("stampede of %d selects ran %d engine evaluations, want the single-select %d", m, got, baseline)
	}
	misses, hits, collapsed := s.cache.misses.Load(), s.cache.hits.Load(), s.cache.collapsed.Load()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 computation", misses)
	}
	if hits+collapsed != m-1 {
		t.Fatalf("hits (%d) + collapsed (%d) = %d, want %d followers", hits, collapsed, hits+collapsed, m-1)
	}
}

// TestSelectCacheDisabled covers the opt-out: every select computes.
func TestSelectCacheDisabled(t *testing.T) {
	s := New(Config{SelectCacheEntries: -1})
	if s.cache != nil {
		t.Fatal("negative SelectCacheEntries should disable the cache")
	}
	if _, err := s.Store().Put("crowd", testJurors(9)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if code, body := postSelect(s.Handler(), "/v1/select", SelectRequest{Pool: "crowd"}); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
}

// TestSelectCacheLRUEviction bounds residency: walking more distinct
// keys than the cache holds evicts oldest-first instead of growing.
func TestSelectCacheLRUEviction(t *testing.T) {
	c := newSelectCache(32)
	raw := []byte("{}\n")
	for v := uint64(0); v < 500; v++ {
		k := selectKey{pool: "p", version: v, kind: kindAltr}
		if _, err := c.do(k, func() ([]byte, error) { return raw, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard capacity is ceil(32/16) = 2, so residency is bounded by
	// 2 per shard even though 500 keys passed through.
	if n := c.len(); n > 32 {
		t.Fatalf("cache holds %d entries, configured bound 32", n)
	}
	if c.len() == 0 {
		t.Fatal("cache evicted everything")
	}
}

// BenchmarkSelectCacheHit is the CI zero-alloc guard for the warm
// cached-select probe: hash, shard lock, map lookup, LRU bump.
func BenchmarkSelectCacheHit(b *testing.B) {
	c := newSelectCache(0)
	k := selectKey{pool: "bench-pool", version: 17, kind: kindPay, budget: 2.5}
	raw := bytes.Repeat([]byte("x"), 512)
	if _, err := c.do(k, func() ([]byte, error) { return raw, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.get(k); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkServerSelectWarm measures the full handler path of a warm
// select — decode, snapshot read, cache probe, raw write — without TCP.
// This is the ISSUE 6 sub-10µs target path.
func BenchmarkServerSelectWarm(b *testing.B) {
	s := New(Config{})
	if _, err := s.Store().Put("crowd", testJurors(101)); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SelectRequest{Pool: "crowd"})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	// Prime the key.
	if code, resp := postSelect(h, "/v1/select", SelectRequest{Pool: "crowd"}); code != http.StatusOK {
		b.Fatalf("prime: status %d: %s", code, resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
