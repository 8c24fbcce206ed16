package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// opStream renders a workload's seeded inputs: the open-loop schedule,
// the closed-loop stream, and the task-lifecycle answers of a fixed set
// of (task, juror) pairs.
func opStream(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	g := newGen(w, seed)
	s := &session{w: w, g: g}
	var buf bytes.Buffer
	buf.Write(encodeOps(g.schedule(3 * time.Second)))
	buf.Write(encodeOps(s.closedStream()[:64]))
	for _, p := range w.pools {
		for k := 0; k < 8; k++ {
			for _, j := range g.pools[p][:8] {
				d, v, lag := g.answer(k, p, j.ID)
				buf.WriteString(strings.Join([]string{p, j.ID, time.Duration(lag).String()}, " "))
				buf.WriteString(map[bool]string{true: " d", false: " -"}[d])
				buf.WriteString(map[bool]string{true: " y\n", false: " n\n"}[v])
			}
		}
		b, err := json.Marshal(g.pools[p])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestOpStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := opStream(t, w, 7), opStream(t, w, 7)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different op streams")
			}
			if c := opStream(t, w, 8); bytes.Equal(a, c) {
				t.Fatal("different seeds gave the same op stream")
			}
			if len(a) < 1000 {
				t.Fatalf("op stream suspiciously short: %d bytes", len(a))
			}
		})
	}
}

// TestOpenLoopTimesFromIntendedSend drives a stub that stalls one
// request for 50ms. With one connection the ops due during the stall
// wait behind it, and their latency, timed from the intended send,
// shows the wait.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"selection":{"model":"altr","size":1,"jury_error_rate":0.1,"total_cost":0,"jurors":[{"id":"a","error_rate":0.1}]},"pool":"p","pool_version":1}` + "\n"))
	}))
	defer srv.Close()

	st := newRunState(newGen(workloads[0], 1))
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), 1)
	defer c.close()
	ph := newPhase(c, st, 1)
	const every = 5 * time.Millisecond
	for i := 0; i < 20; i++ {
		ph.pushLocked(op{at: time.Duration(i) * every, kind: opSelectPool, pool: "p", model: "altr", body: []byte(`{}`)})
	}
	start := time.Now().Add(20 * time.Millisecond)
	samples := ph.run(start, start.Add(2*time.Second))
	if len(samples) != 20 || st.failures != 0 {
		t.Fatalf("got %d samples, %d failures (%v)", len(samples), st.failures, st.failMsgs)
	}
	byAt := map[time.Duration]sample{}
	for _, s := range samples {
		byAt[s.at] = s
	}
	stalled := byAt[4*every]
	if stalled.lat < stall {
		t.Fatalf("stalled request took %v, want ≥ %v", stalled.lat, stall)
	}
	// The next op was due 5ms after the stalled one was sent; it could
	// only be sent once the stall ended.
	next := byAt[5*every]
	if want := stall - every; next.lat < want {
		t.Errorf("op after the stall: latency %v, want ≥ %v (timed from its intended send)", next.lat, want)
	}
	if next.lag < stall-2*every {
		t.Errorf("op after the stall: send lag %v, want about %v", next.lag, stall-every)
	}
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsDelta reads a recorded before/after pair of juryd /metrics
// scrapes: six selects (four served from the cache), one PATCH, one
// /v1/jer, one task create, one vote and one GET between them.
func TestMetricsDelta(t *testing.T) {
	a, err := parseMetrics(readFixture(t, "metrics_before.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseMetrics(readFixture(t, "metrics_after.json"))
	if err != nil {
		t.Fatal(err)
	}
	d := metricsDelta{a, b}
	if got := b.Selections - a.Selections; got != 6 {
		t.Errorf("selects: got %d, want 6", got)
	}
	if got := b.SelectCache.Hits - a.SelectCache.Hits; got != 4 {
		t.Errorf("cache hits: got %d, want 4", got)
	}
	if got := b.Tasks.WALAppends - a.Tasks.WALAppends; got != 3 {
		t.Errorf("WAL appends: got %d, want 3 (patch, create, vote)", got)
	}
	total, requests := d.handlerNS()
	if requests != 11 || total <= 0 {
		t.Errorf("handler: %d requests over %gns, want 11 requests", requests, total)
	}
	if m := d.stageMeanNS("engine"); m <= 0 {
		t.Errorf("engine stage mean %g, want > 0", m)
	}
	if m := d.stageMeanNS("store"); m <= 0 {
		t.Errorf("store stage mean %g, want > 0", m)
	}
	if got := meanNS(summary{Count: 2, MeanNS: 10}, summary{Count: 4, MeanNS: 20}); got != 30 {
		t.Errorf("meanNS: got %g, want 30", got)
	}
}

// TestMetricsMissingKeyFails removes keys the benchmark reads from the
// fixture: each must fail the parse by name, not read as zero.
func TestMetricsMissingKeyFails(t *testing.T) {
	for _, path := range [][]string{
		{"select_cache", "collapsed"},
		{"tasks", "wal_fsyncs"},
		{"tasks", "wal_durable_wait", "mean_ns"},
		{"pool_writes"},
		{"stages", "queue_wait"},
		{"stages", "encode", "count"},
		{"endpoints", "select_warm", "latency"},
		{"runtime", "num_gc"},
		{"engine_cache_hits"},
	} {
		var doc map[string]any
		if err := json.Unmarshal(readFixture(t, "metrics_after.json"), &doc); err != nil {
			t.Fatal(err)
		}
		obj := doc
		for _, k := range path[:len(path)-1] {
			obj = obj[k].(map[string]any)
		}
		delete(obj, path[len(path)-1])
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = parseMetrics(raw)
		if err == nil || !strings.Contains(err.Error(), path[len(path)-1]) {
			t.Errorf("without %v: err = %v, want it named", path, err)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesInBenchmarkJSON fills both result kinds from synthetic
// runs and checks every emitted name against BENCHMARK.json, both ways.
func TestMetricNamesInBenchmarkJSON(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workload {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}

	g := newGen(workloads[2], 1)
	sm := []sample{{kind: opPoll, at: 2 * time.Second, lat: time.Millisecond, ok: true},
		{kind: opVote, at: 2 * time.Second, lat: 2 * time.Millisecond, ok: true}}
	s := &session{cfg: config{seconds: 45}, w: workloads[2], g: g, st: newRunState(g),
		open: sm, closed: sm, closedW: time.Second,
		setup: []time.Duration{time.Millisecond}, recov: []time.Duration{time.Millisecond},
		q: quality{decided: 1, votes: 3}}
	e2e := newResult()
	s.fillEndToEnd(e2e)

	snap, err := parseMetrics(readFixture(t, "metrics_after.json"))
	if err != nil {
		t.Fatal(err)
	}
	layer := newResult()
	a := &partA{before: snap, after: snap}
	if err := a.fill(layer, s); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{fsync: []float64{1}}
	b := &partB{direct: map[string][]float64{}}
	b.fill(layer, rec)

	for _, c := range []struct {
		kind string
		res  *result
		spec []struct{ Name, Unit string }
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", layer, spec.PerLayer}} {
		want := map[string]string{}
		for _, m := range c.spec {
			want[m.Name] = m.Unit
		}
		for _, n := range c.res.names {
			if !nameRE.MatchString(n) {
				t.Errorf("%s metric %q: bad name", c.kind, n)
			}
			unit, ok := want[n]
			if !ok {
				t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", c.kind, n)
			} else if unit != c.res.metrics[n].Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", c.kind, n, c.res.metrics[n].Unit, unit)
			}
			delete(want, n)
		}
		for n := range want {
			t.Errorf("%s metric %q is in BENCHMARK.json but never emitted", c.kind, n)
		}
	}
}

// encodeOps renders an op stream canonically, for the determinism test.
func encodeOps(ops []op) []byte {
	var buf bytes.Buffer
	for _, o := range ops {
		fmt.Fprintf(&buf, "%d %s %s %s %g %d %s %t %t %s\n",
			o.at.Nanoseconds(), o.kind, o.pool, o.model, o.budget, o.task, o.juror, o.vote, o.sample, o.appendBody(nil))
	}
	return buf.Bytes()
}
