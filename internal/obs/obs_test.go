package obs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, 1000, 1 << 20} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if want := int64(0 + 1 + 2 + 3 + 100 + 1000 + 1000 + 1<<20); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Max != 1<<20 {
		t.Fatalf("max = %d, want %d", s.Max, 1<<20)
	}
	if got := s.Quantile(1); got != 1<<20 {
		t.Fatalf("q1 = %d, want max", got)
	}
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("q0 = %d, want 0", got)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Buckets[0] != 1 {
		t.Fatalf("negative sample not clamped: %+v", s)
	}
}

// TestHistogramQuantileAccuracy: power-of-two buckets promise estimates
// within a factor of 2; with interpolation a uniform distribution lands
// much closer. Assert the factor-of-2 contract.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 10000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := int64(q * 10000)
		got := s.Quantile(q)
		if got < exact/2 || got > exact*2 {
			t.Errorf("q%.3f = %d, want within 2x of %d", q, got, exact)
		}
	}
	if got := s.Quantile(1); got != 10000 {
		t.Errorf("q1 = %d, want 10000", got)
	}
	if m := s.Mean(); m < 5000 || m > 5001 {
		t.Errorf("mean = %g, want ~5000.5", m)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(20)
	b.Observe(1 << 30)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 {
		t.Fatalf("merged count = %d, want 3", sa.Count)
	}
	if sa.Max != 1<<30 {
		t.Fatalf("merged max = %d, want %d", sa.Max, 1<<30)
	}
	if sa.Sum != 30+1<<30 {
		t.Fatalf("merged sum = %d", sa.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketed int64
	for _, c := range s.Buckets {
		bucketed += c
	}
	if bucketed != s.Count {
		t.Fatalf("buckets sum to %d, count %d", bucketed, s.Count)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", n)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4)
	tr := NewTrace()
	for i := 1; i <= 6; i++ {
		tr.Reset()
		tr.ID = int64(i)
		tr.Endpoint = "select_warm"
		tr.DurNS = int64(i) * 1000
		tr.Add(StageDecode, 10)
		tr.Add(StageEncode, 20)
		r.Capture(tr)
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d, want 6", r.Total())
	}
	got := r.Snapshot(nil, 0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	// Newest first: IDs 6, 5, 4, 3.
	for i, want := range []int64{6, 5, 4, 3} {
		if got[i].ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d", i, got[i].ID, want)
		}
	}
	if len(got[0].Spans) != 2 || got[0].Spans[0].Stage != StageDecode {
		t.Fatalf("spans not copied: %+v", got[0].Spans)
	}
	// Filter: min duration.
	slow := r.Snapshot(func(tr *Trace) bool { return tr.DurNS >= 5000 }, 0)
	if len(slow) != 2 {
		t.Fatalf("filtered %d, want 2", len(slow))
	}
	// Limit applies after filtering order.
	one := r.Snapshot(nil, 1)
	if len(one) != 1 || one[0].ID != 6 {
		t.Fatalf("limit 1 returned %+v", one)
	}
}

func TestTraceRingCaptureAllocs(t *testing.T) {
	r := NewTraceRing(8)
	tr := NewTrace()
	tr.Endpoint = "jer"
	tr.Add(StageDecode, 100)
	if n := testing.AllocsPerRun(100, func() { r.Capture(tr) }); n != 0 {
		t.Fatalf("Capture allocates %v/op, want 0", n)
	}
}

func TestTraceTruncation(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < MaxSpans+5; i++ {
		tr.Add(StageDecode, 1)
	}
	if len(tr.Spans) != MaxSpans || !tr.Truncated {
		t.Fatalf("spans = %d truncated = %v", len(tr.Spans), tr.Truncated)
	}
	if tr.StageNS(StageDecode) != MaxSpans {
		t.Fatalf("StageNS = %d", tr.StageNS(StageDecode))
	}
}

func TestContextTrace(t *testing.T) {
	if TraceFromContext(context.Background()) != nil {
		t.Fatal("background context carries a trace")
	}
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFromContext(ctx) != tr {
		t.Fatal("trace not threaded")
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumStages; i++ {
		name := Stage(i).String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("stage %d has bad/duplicate name %q", i, name)
		}
		seen[name] = true
	}
}

func TestPromRoundTrip(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000)
	}
	var buf bytes.Buffer
	p := NewProm(&buf)
	p.Header("juryd_requests_total", "counter", "Total requests.")
	p.Sample("juryd_requests_total", `endpoint="jer"`, 42)
	p.Sample("juryd_requests_total", `endpoint="select_warm"`, 7)
	p.Header("juryd_inflight", "gauge", "In-flight requests.")
	p.Sample("juryd_inflight", "", 3)
	p.Header("juryd_request_duration_seconds", "histogram", "Request latency.")
	p.HistogramNS("juryd_request_duration_seconds", `endpoint="jer"`, h.Snapshot())
	p.HistogramNS("juryd_request_duration_seconds", `endpoint="select_warm"`, h.Snapshot())

	fams, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("exporter output does not parse: %v", err)
	}
	reqs := fams["juryd_requests_total"]
	if reqs == nil || reqs.Type != "counter" || len(reqs.Samples) != 2 {
		t.Fatalf("requests family = %+v", reqs)
	}
	if reqs.Samples[0].Labels["endpoint"] != "jer" || reqs.Samples[0].Value != 42 {
		t.Fatalf("sample = %+v", reqs.Samples[0])
	}
	hist := fams["juryd_request_duration_seconds"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", hist)
	}
	var count, inf float64
	for _, s := range hist.Samples {
		if strings.HasSuffix(s.Name, "_count") && s.Labels["endpoint"] == "jer" {
			count = s.Value
		}
		if strings.HasSuffix(s.Name, "_bucket") && s.Labels["endpoint"] == "jer" && s.Labels["le"] == "+Inf" {
			inf = s.Value
		}
	}
	if count != 1000 || inf != 1000 {
		t.Fatalf("count %v inf %v, want 1000", count, inf)
	}
}

func TestParsePromRejectsBroken(t *testing.T) {
	cases := []string{
		"juryd_orphan 1\n", // sample without TYPE
		"# TYPE juryd_x widget\njuryd_x 1\n",
		"# TYPE juryd_h histogram\n" +
			"juryd_h_bucket{le=\"1\"} 5\njuryd_h_bucket{le=\"2\"} 3\n" +
			"juryd_h_bucket{le=\"+Inf\"} 3\njuryd_h_sum 1\njuryd_h_count 3\n", // non-cumulative
		"# TYPE juryd_h histogram\n" +
			"juryd_h_bucket{le=\"1\"} 5\njuryd_h_sum 1\njuryd_h_count 5\n", // no +Inf
	}
	for i, c := range cases {
		if _, err := ParseProm(strings.NewReader(c)); err == nil {
			t.Errorf("case %d parsed, want error:\n%s", i, c)
		}
	}
}

func TestPromHistogramSeconds(t *testing.T) {
	var buf bytes.Buffer
	p := NewProm(&buf)
	p.Header("go_gc_pause_seconds", "histogram", "GC pauses.")
	bounds := []float64{1e-6, 1e-3, maxFloat * 10}
	counts := []uint64{5, 3, 1}
	p.HistogramSeconds("go_gc_pause_seconds", "", bounds, counts, 0.005)
	fams, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	f := fams["go_gc_pause_seconds"]
	if f == nil {
		t.Fatal("family missing")
	}
	var inf float64
	for _, s := range f.Samples {
		if strings.HasSuffix(s.Name, "_bucket") && s.Labels["le"] == "+Inf" {
			inf = s.Value
		}
	}
	if inf != 9 {
		t.Fatalf("+Inf = %v, want 9", inf)
	}
}

// TestHistogramExamplePercentiles pins the interpolation behaviour the
// serving metrics rely on: with all mass in one bucket the quantiles
// stay inside that bucket's bounds.
func TestHistogramExamplePercentiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(2000 + int64(i)) // all in bucket [2048,4095] or [1024,2047]
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v := s.Quantile(q)
		if v < 1024 || v > 4095 {
			t.Fatalf("q%.2f = %d escaped the occupied buckets", q, v)
		}
	}
}

// TestFingerprint pins the view stamp: the hex SHA-256 of the value's
// JSON, equal for equal states and different when any field differs.
func TestFingerprint(t *testing.T) {
	type view struct {
		Tasks int      `json:"tasks"`
		IDs   []string `json:"ids"`
	}
	a := Fingerprint(&view{Tasks: 2, IDs: []string{"t0", "t1"}})
	if b := Fingerprint(view{Tasks: 2, IDs: []string{"t0", "t1"}}); a != b {
		t.Errorf("equal states fingerprint differently: %s vs %s", a, b)
	}
	if c := Fingerprint(&view{Tasks: 3, IDs: []string{"t0", "t1"}}); c == a {
		t.Error("different states share a fingerprint")
	}
	sum := sha256.Sum256([]byte(`{"tasks":2,"ids":["t0","t1"]}`))
	if want := hex.EncodeToString(sum[:]); a != want {
		t.Errorf("fingerprint = %s, want SHA-256 of the JSON %s", a, want)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkTraceCapture(b *testing.B) {
	r := NewTraceRing(DefaultTraceRing)
	tr := NewTrace()
	tr.Endpoint = "select_warm"
	tr.Start = time.Now()
	for i := 0; i < 6; i++ {
		tr.Add(Stage(i), int64(i)*100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Capture(tr)
	}
}

func ExampleHistSnapshot_Summary() {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	snap := h.Snapshot()
	s := snap.Summary()
	fmt.Println(s.Count, s.MaxNS)
	// Output: 100 100000
}
