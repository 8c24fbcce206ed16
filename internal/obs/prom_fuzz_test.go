package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseProm checks the exposition parser, which reads text from
// outside the process, on two fronts. Any text must parse or fail
// without panicking, and accepted text keeps the parser's contract:
// every family is typed and every sample is finite. And what Prom
// writes for a finite value v (a labelled gauge sample of v and a
// one-sample histogram of int64(v) nanoseconds) must parse back to
// exactly those values. The seed corpus under testdata/fuzz holds a
// juryd-shaped exposition, histograms, broken and comment-only text,
// and extreme values. Explore with
//
//	go test -run '^$' -fuzz='^FuzzParseProm$' ./internal/obs/
func FuzzParseProm(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, v float64) {
		if fams, err := ParseProm(strings.NewReader(text)); err == nil {
			for name, fam := range fams {
				if fam.Type == "" {
					t.Fatalf("accepted family %q without a TYPE", name)
				}
				for _, s := range fam.Samples {
					if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
						t.Fatalf("accepted non-finite sample %+v", s)
					}
				}
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		var h Histogram
		h.Observe(int64(v))
		snap := h.Snapshot()
		var buf bytes.Buffer
		p := NewProm(&buf)
		p.Header("juryd_fuzz", "gauge", "Fuzzed value.")
		p.Sample("juryd_fuzz", `k="v"`, v)
		p.Header("juryd_fuzz_seconds", "histogram", "Fuzzed latency.")
		p.HistogramNS("juryd_fuzz_seconds", "", snap)
		out := buf.String()
		fams, err := ParseProm(&buf)
		if err != nil {
			t.Fatalf("exposition of %v does not parse: %v\n%s", v, err, out)
		}
		g := fams["juryd_fuzz"].Samples
		if len(g) != 1 || math.Float64bits(g[0].Value) != math.Float64bits(v) || g[0].Labels["k"] != "v" {
			t.Fatalf("gauge %v parsed back as %+v\n%s", v, g, out)
		}
		want := map[string]float64{
			"juryd_fuzz_seconds_sum":   float64(snap.Sum) / 1e9,
			"juryd_fuzz_seconds_count": 1,
		}
		for _, s := range fams["juryd_fuzz_seconds"].Samples {
			w, ok := want[s.Name]
			if s.Name == "juryd_fuzz_seconds_bucket" && s.Labels["le"] == "+Inf" {
				w, ok = 1, true
			}
			if ok && s.Value != w {
				t.Fatalf("%s%v = %v, want %v\n%s", s.Name, s.Labels, s.Value, w, out)
			}
			delete(want, s.Name)
		}
		if len(want) != 0 {
			t.Fatalf("histogram lost %v\n%s", want, out)
		}
	})
}
