package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestScrapeRendersBothDocuments records values the way a server's
// collect does and checks both renderings: dotted paths nest in JSON, an
// empty histogram keeps its JSON summary but gets no series, a family's
// samples stay together however the recording interleaves, and the
// exposition parses.
func TestScrapeRendersBothDocuments(t *testing.T) {
	sc := NewScrape()
	reqs := sc.Family("t_requests_total", "counter", "Requests.")
	lat := sc.Family("t_latency_seconds", "histogram", "Latency.")
	idle := sc.Family("t_idle", "gauge", "A family that never gets a series.")
	var busy, quiet Histogram
	busy.Observe(1500)
	busy.Observe(40)
	for _, ep := range []struct {
		name string
		n    int64
		h    *Histogram
	}{{"a", 2, &busy}, {"b", 0, &quiet}} {
		sc.Add("endpoints."+ep.name+".requests", ep.n, reqs, `endpoint="`+ep.name+`"`)
		sc.Add("endpoints."+ep.name+".latency", ep.h.Snapshot(), lat, `endpoint="`+ep.name+`"`)
	}
	sc.Add("ratio", 0.5, sc.Family("t_ratio", "gauge", "A ratio."), "")
	sc.Add("", true, sc.Family("t_alert", "gauge", "A flag."), `severity="fast"`)
	sc.Set("build.version", "v1")
	sc.Set("hist", []int64{1, 2})

	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Endpoints map[string]struct {
			Requests int64   `json:"requests"`
			Latency  Summary `json:"latency"`
		} `json:"endpoints"`
		Ratio float64 `json:"ratio"`
		Build struct {
			Version string `json:"version"`
		} `json:"build"`
		Hist []int64 `json:"hist"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if a := doc.Endpoints["a"]; a.Requests != 2 || a.Latency.Count != 2 || a.Latency.MaxNS != 1500 {
		t.Errorf("endpoints.a = %+v", a)
	}
	if b, ok := doc.Endpoints["b"]; !ok || b.Latency.Count != 0 {
		t.Errorf("endpoints.b = %+v (present %v), want an empty latency summary", b, ok)
	}
	if !strings.Contains(string(raw), `"b":{"latency":{"count":0,`) {
		t.Errorf("empty histogram lost its JSON summary: %s", raw)
	}
	if doc.Ratio != 0.5 || doc.Build.Version != "v1" || len(doc.Hist) != 2 {
		t.Errorf("document = %s", raw)
	}

	var buf bytes.Buffer
	sc.WriteProm(NewProm(&buf))
	text := buf.String()
	fams, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if _, ok := fams[idle.name]; ok {
		t.Error("a family with no series rendered a header")
	}
	if got := fams["t_requests_total"].Samples; len(got) != 2 || got[0].Labels["endpoint"] != "a" || got[1].Value != 0 {
		t.Errorf("t_requests_total = %+v", got)
	}
	for _, s := range fams["t_latency_seconds"].Samples {
		if s.Labels["endpoint"] != "a" {
			t.Errorf("empty histogram rendered series %+v", s)
		}
	}
	if v := fams["t_alert"].Samples; len(v) != 1 || v[0].Value != 1 {
		t.Errorf("t_alert = %+v, want 1", v)
	}
	// Recording alternated between the two families; each family's
	// samples must still form one contiguous run after its header.
	seen := map[string]bool{}
	last := ""
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fam := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(
			strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0],
			"_bucket"), "_sum"), "_count")
		if fam != last && seen[fam] {
			t.Errorf("family %s resumes after %s: samples split", fam, last)
		}
		seen[fam], last = true, fam
	}
}
