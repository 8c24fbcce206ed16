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

	"juryselect/internal/memo"
	"juryselect/internal/pool"
	"juryselect/internal/tasks"
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
// proof: a cached server and an uncached server share one task store;
// a randomized sequence of PUT/PATCH/DELETE mutations interleaves with
// selects, and after every mutation each strategy's cached response —
// cold fill and warm hit alike — must be byte-identical to the freshly
// computed uncached select at the same pool version. Version-keying is
// the only invalidation mechanism under test: no entry is ever purged.
func TestSelectCacheParityUnderMutation(t *testing.T) {
	store, err := tasks.Open(tasks.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cached := New(Config{Tasks: store})
	uncached := New(Config{Tasks: store, SelectCacheEntries: -1})

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
		if _, err := store.PutPool(name, randomJurors(4+rng.Intn(8))); err != nil {
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
			if _, err := store.PutPool(name, randomJurors(4+rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		case op == 1: // delete (selects must agree on the 404 too)
			if _, err := store.DeletePool(name); err != nil {
				t.Fatal(err)
			}
		default: // incremental patch
			p, ok := store.Pools().Get(name)
			if !ok {
				if _, err := store.PutPool(name, randomJurors(4+rng.Intn(8))); err != nil {
					t.Fatal(err)
				}
				break
			}
			rate := 0.02 + 0.46*rng.Float64()
			up := pool.JurorUpdate{ID: p.Member(rng.Intn(p.Size())).ID, ErrorRate: &rate}
			if _, err := store.PatchPool(name, []pool.JurorUpdate{up}); err != nil {
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
	if c := cached.cache.Counts(); c.Hits == 0 || c.Computed == 0 {
		t.Fatalf("parity loop exercised no cache traffic: hits=%d misses=%d", c.Hits, c.Computed)
	}
}

// TestSelectCacheStalenessUnderRace runs concurrent selects against a
// pool under continuous patching and verifies no response is torn or
// stale: whatever snapshot version a response embeds, its bytes must
// equal the select computed fresh from exactly that immutable snapshot.
// (Run under -race in CI.)
func TestSelectCacheStalenessUnderRace(t *testing.T) {
	s := New(Config{})
	expected := make(map[uint64][]byte) // version -> uncached altr response bytes
	record := func(p *pool.Pool) {
		raw, err := s.computeSelectRaw(context.Background(),
			selectPlan{req: &SelectRequest{Pool: "crowd"}, model: "altr", strategy: tasks.StrategyAltr, pool: p})
		if err != nil {
			t.Errorf("computing expected bytes at version %d: %v", p.Version, err)
			return
		}
		expected[p.Version] = raw
	}
	p, err := s.tasks.PutPool("crowd", testJurors(15))
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
		p, err := s.tasks.PatchPool("crowd", []pool.JurorUpdate{{ID: "j007", ErrorRate: &rate}})
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
	if _, err := base.tasks.PutPool("crowd", testJurors(24)); err != nil {
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
	if _, err := s.tasks.PutPool("crowd", testJurors(24)); err != nil {
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
	c := s.cache.Counts()
	misses, hits, collapsed := c.Computed, c.Hits, c.Joined
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 computation", misses)
	}
	if hits+collapsed != m-1 {
		t.Fatalf("hits (%d) + collapsed (%d) = %d, want %d followers", hits, collapsed, hits+collapsed, m-1)
	}
	// One probe per select: a hit books under select_warm, a leader or
	// joiner under select_miss, so the cache and endpoint counts agree.
	if warm, miss := s.eps[epSelectWarm].requests.Load(), s.eps[epSelectMiss].requests.Load(); warm != hits || miss != misses+collapsed {
		t.Fatalf("select_warm %d / select_miss %d requests, want hits %d / misses+collapsed %d",
			warm, miss, hits, misses+collapsed)
	}
}

// TestSelectCacheDropsSupersededVersions asserts a pool write through
// the handlers leaves only live keys resident: after every PATCH, once
// the selects in between have refilled it, /metrics select_cache.entries
// equals the live (pool, strategy, budget) count; a DELETE drops every
// version of that pool and no other pool's; a re-PUT continues the
// version sequence. It runs against the memory-only task store New
// opens (tasks=false) and against one passed in Config.Tasks
// (tasks=true).
func TestSelectCacheDropsSupersededVersions(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("tasks=%v", durable), func(t *testing.T) {
			var cfg Config
			if durable {
				ts, err := tasks.Open(tasks.Config{})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Tasks = ts
			}
			_, hs := newTestServer(t, cfg)
			selects := []SelectRequest{{Pool: "crowd"}, {Pool: "crowd", Model: "pay", Budget: 1}}
			selectAll := func(wantVersion uint64) {
				t.Helper()
				for _, req := range selects {
					var resp SelectResponse
					if code := do(t, http.MethodPost, hs.URL+"/v1/select", req, &resp); code != http.StatusOK {
						t.Fatalf("select %+v: status %d", req, code)
					}
					if resp.PoolVersion != wantVersion {
						t.Fatalf("select %+v: pool_version %d, want %d", req, resp.PoolVersion, wantVersion)
					}
				}
			}
			entries := func() int {
				t.Helper()
				var m struct {
					SelectCache struct {
						Entries int `json:"entries"`
					} `json:"select_cache"`
				}
				if code := do(t, http.MethodGet, hs.URL+"/metrics", nil, &m); code != http.StatusOK {
					t.Fatalf("metrics: status %d", code)
				}
				return m.SelectCache.Entries
			}

			putPool(t, hs.URL, "other", testJurors(9))
			if code := do(t, http.MethodPost, hs.URL+"/v1/select", SelectRequest{Pool: "other"}, nil); code != http.StatusOK {
				t.Fatalf("select other: status %d", code)
			}
			putPool(t, hs.URL, "crowd", testJurors(15))
			selectAll(1)
			live := len(selects) + 1
			if n := entries(); n != live {
				t.Fatalf("after the first selects: %d entries, want %d", n, live)
			}
			for round := 1; round <= 10; round++ {
				patch := PatchJurorsRequest{Updates: []JurorUpdateJSON{{ID: "j003", Votes: &VotesJSON{Wrong: 1, Total: 5}}}}
				if code := do(t, http.MethodPatch, hs.URL+"/v1/pools/crowd/jurors", patch, nil); code != http.StatusOK {
					t.Fatalf("round %d: PATCH status %d", round, code)
				}
				selectAll(uint64(round + 1))
				if n := entries(); n != live {
					t.Fatalf("round %d: %d entries, want the %d live keys", round, n, live)
				}
			}

			if code := do(t, http.MethodDelete, hs.URL+"/v1/pools/crowd", nil, nil); code != http.StatusNoContent {
				t.Fatalf("DELETE crowd: status %d", code)
			}
			if n := entries(); n != 1 {
				t.Fatalf("after DELETE crowd: %d entries, want other's 1", n)
			}
			if code := do(t, http.MethodDelete, hs.URL+"/v1/pools/other", nil, nil); code != http.StatusNoContent {
				t.Fatalf("DELETE other: status %d", code)
			}
			if n := entries(); n != 0 {
				t.Fatalf("after deleting every pool: %d entries, want 0", n)
			}
			putPool(t, hs.URL, "crowd", testJurors(15))
			selectAll(12)
			if n := entries(); n != len(selects) {
				t.Fatalf("after the re-PUT: %d entries, want %d", n, len(selects))
			}
		})
	}
}

// TestSelectCacheDisabled covers the opt-out: every select computes.
func TestSelectCacheDisabled(t *testing.T) {
	s := New(Config{SelectCacheEntries: -1})
	if s.cache != nil {
		t.Fatal("negative SelectCacheEntries should disable the cache")
	}
	if _, err := s.tasks.PutPool("crowd", testJurors(9)); err != nil {
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
	c := memo.New[selectKey, []byte](32)
	raw := []byte("{}\n")
	for v := uint64(0); v < 500; v++ {
		k := selectKey{pool: "p", version: v, strategy: tasks.StrategyAltr}
		if _, _, err := c.Do(k, k.hash(), func() ([]byte, error) { return raw, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard capacity is ceil(32/16) = 2, so residency is bounded by
	// 2 per shard even though 500 keys passed through.
	n := 0
	for _, l := range c.ShardLens() {
		n += l
	}
	if n > 32 {
		t.Fatalf("cache holds %d entries, configured bound 32", n)
	}
	if n == 0 {
		t.Fatal("cache evicted everything")
	}
}

// selectCacheHit returns a probe of a resident select-cache key: hash,
// shard lock, map lookup and LRU bump. Like selectRaw it passes Do a
// closure, which must not escape. It fails tb unless the probe hits.
func selectCacheHit(tb testing.TB) func() {
	c := memo.New[selectKey, []byte](DefaultSelectCacheEntries)
	k := selectKey{pool: "bench-pool", version: 17, strategy: tasks.StrategyPay, budget: 2.5}
	raw := bytes.Repeat([]byte("x"), 512)
	if _, _, err := c.Do(k, k.hash(), func() ([]byte, error) { return raw, nil }); err != nil {
		tb.Fatal(err)
	}
	return func() {
		_, out, _ := c.Do(k, k.hash(), func() ([]byte, error) {
			tb.Fatal("computed a resident key")
			return nil, nil
		})
		if out != memo.Hit {
			tb.Fatal("unexpected miss")
		}
	}
}

// TestSelectCacheHitAllocations: the warm cached-select probe allocates
// nothing.
func TestSelectCacheHitAllocations(t *testing.T) {
	if got := testing.AllocsPerRun(200, selectCacheHit(t)); got != 0 {
		t.Fatalf("select cache hit allocates %.0f/op, want 0", got)
	}
}

func BenchmarkSelectCacheHit(b *testing.B) {
	probe := selectCacheHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe()
	}
}

// BenchmarkServerSelectWarm measures the full handler path of a warm
// select — decode, snapshot read, cache probe, raw write — without TCP.
// This is the ISSUE 6 sub-10µs target path.
func BenchmarkServerSelectWarm(b *testing.B) {
	s := New(Config{})
	if _, err := s.tasks.PutPool("crowd", testJurors(101)); err != nil {
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

// TestWarmSelectSkipsEngine tests the invariant BenchmarkServerSelectWarm
// times: after one cold select, each repeat of it is one select-cache
// hit booked under select_warm, and the engine neither evaluates nor
// probes its memo. Unlike the ns/op guard, this catches a lost cache on
// any machine. The default engine runs, with its memo on; a cold pay
// select evaluates through it, while altr's incremental solver runs
// beside it.
func TestWarmSelectSkipsEngine(t *testing.T) {
	s := New(Config{})
	if _, err := s.tasks.PutPool("crowd", flatJurors(101)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, req := range []SelectRequest{{Pool: "crowd", Model: "altr"}, {Pool: "crowd", Model: "pay", Budget: 3}} {
		evals, misses := s.eng.Stats().Evaluations, s.cache.Counts().Computed
		if code, body := postSelect(h, "/v1/select", req); code != http.StatusOK {
			t.Fatalf("%s cold select: status %d: %s", req.Model, code, body)
		}
		if got := s.cache.Counts().Computed; got != misses+1 {
			t.Fatalf("%s cold select: select_cache misses %d→%d, want +1", req.Model, misses, got)
		}
		if req.Model == "pay" && s.eng.Stats().Evaluations == evals {
			t.Fatal("pay cold select made no engine evaluations; the warm checks would be vacuous")
		}
		for i := 0; i < 5; i++ {
			eng, hits, warm := s.eng.Stats(), s.cache.Counts().Hits, s.eps[epSelectWarm].requests.Load()
			if code, body := postSelect(h, "/v1/select", req); code != http.StatusOK {
				t.Fatalf("%s repeat %d: status %d: %s", req.Model, i, code, body)
			}
			if got := s.eng.Stats(); got.Evaluations != eng.Evaluations || got.CacheHits != eng.CacheHits {
				t.Errorf("%s repeat %d: engine evaluations %d→%d, memo hits %d→%d, want both unchanged",
					req.Model, i, eng.Evaluations, got.Evaluations, eng.CacheHits, got.CacheHits)
			}
			if got := s.cache.Counts().Hits; got != hits+1 {
				t.Errorf("%s repeat %d: select_cache hits %d→%d, want +1", req.Model, i, hits, got)
			}
			if got := s.eps[epSelectWarm].requests.Load(); got != warm+1 {
				t.Errorf("%s repeat %d: select_warm requests %d→%d, want +1", req.Model, i, warm, got)
			}
		}
	}
}
