package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Scrape is one reading of a service's metrics, rendered as two
// documents: a nested JSON object and the Prometheus text exposition.
// Each value is recorded once, under its dotted JSON path and, when it
// is exported, under a Prometheus family and label set, so the two
// documents render the same reading and cannot disagree about a value.
type Scrape struct {
	root map[string]any
	fams []*Family
}

// Family is one Prometheus metric family of a Scrape.
type Family struct {
	name, typ, help string
	series          []series
}

// series is one sample (v) or one nanosecond histogram (hist) of a family.
type series struct {
	labels string
	v      float64
	hist   *HistSnapshot
}

// NewScrape returns an empty scrape.
func NewScrape() *Scrape { return &Scrape{root: map[string]any{}} }

// Family declares a Prometheus family; typ is "counter", "gauge" or
// "histogram". Families render in declaration order, and a family that
// gets no series renders nothing.
func (s *Scrape) Family(name, typ, help string) *Family {
	f := &Family{name: name, typ: typ, help: help}
	s.fams = append(s.fams, f)
	return f
}

// Set records v at the dotted JSON path ("tasks.wal_appends" nests
// wal_appends inside tasks) and nowhere else. v is any value
// encoding/json can render.
func (s *Scrape) Set(path string, v any) {
	m := s.root
	for {
		key, rest, nested := strings.Cut(path, ".")
		if !nested {
			m[key] = v
			return
		}
		sub, ok := m[key].(map[string]any)
		if !ok {
			sub = map[string]any{}
			m[key] = sub
		}
		m, path = sub, rest
	}
}

// Add records v at the JSON path (none when path is "") and as one
// series of f with the given label body, e.g. `endpoint="jer"` (none
// when f is nil). v is an int, int64, float64, bool (rendered 0/1 in
// the exposition) or HistSnapshot. A HistSnapshot renders its Summary in
// JSON and becomes a histogram series only once it holds samples.
func (s *Scrape) Add(path string, v any, f *Family, labels string) {
	sr := series{labels: labels}
	switch x := v.(type) {
	case HistSnapshot:
		if path != "" {
			s.Set(path, x.Summary())
		}
		if x.Count == 0 {
			return
		}
		sr.hist = &x
	case int:
		sr.v = float64(x)
	case int64:
		sr.v = float64(x)
	case float64:
		sr.v = x
	case bool:
		if x {
			sr.v = 1
		}
	default:
		panic(fmt.Sprintf("obs: Scrape.Add of unsupported %T", v))
	}
	if path != "" && sr.hist == nil {
		s.Set(path, v)
	}
	if f != nil {
		f.series = append(f.series, sr)
	}
}

// MarshalJSON renders the JSON document, keys sorted.
func (s *Scrape) MarshalJSON() ([]byte, error) { return json.Marshal(s.root) }

// WriteProm renders every family that has a series through p: one
// header, then its series in the order they were added.
func (s *Scrape) WriteProm(p *Prom) {
	for _, f := range s.fams {
		if len(f.series) == 0 {
			continue
		}
		p.Header(f.name, f.typ, f.help)
		for _, sr := range f.series {
			if sr.hist != nil {
				p.HistogramNS(f.name, sr.labels, *sr.hist)
			} else {
				p.Sample(f.name, sr.labels, sr.v)
			}
		}
	}
}
