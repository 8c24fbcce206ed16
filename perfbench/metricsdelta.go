package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricsSnap is the part of juryd's GET /metrics the benchmark reads:
// the stages, select_cache, engine, tasks, runtime and endpoints blocks.
type metricsSnap struct {
	Requests          int64 `json:"requests"`
	Selections        int64 `json:"selections"`
	Shed              int64 `json:"shed"`
	PoolWrites        int64 `json:"pool_writes"`
	EngineEvaluations int64 `json:"engine_evaluations"`
	EngineCacheHits   int64 `json:"engine_cache_hits"`
	SelectCache       struct {
		Hits      int64 `json:"hits"`
		Collapsed int64 `json:"collapsed"`
	} `json:"select_cache"`
	Tasks struct {
		Creates         int64   `json:"creates"`
		Votes           int64   `json:"votes"`
		WALAppends      int64   `json:"wal_appends"`
		WALFsyncs       int64   `json:"wal_fsyncs"`
		WALCompactions  int64   `json:"wal_compactions"`
		ShardContention int64   `json:"shard_contention"`
		WALDurableWait  summary `json:"wal_durable_wait"`
	} `json:"tasks"`
	Stages    map[string]summary `json:"stages"`
	Endpoints map[string]struct {
		Requests int64   `json:"requests"`
		Latency  summary `json:"latency"`
	} `json:"endpoints"`
	Runtime struct {
		NumGC int64 `json:"num_gc"`
	} `json:"runtime"`
}

// summary is the part of an obs.Summary the deltas use: count and mean
// are exact, so their product is the summed time.
type summary struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
}

// The keys parseMetrics insists on. A renamed or dropped key fails the
// run instead of reading as zero.
var (
	requiredTop = []string{"requests", "selections", "shed", "pool_writes", "engine_evaluations",
		"engine_cache_hits", "select_cache", "tasks", "stages", "endpoints", "runtime"}
	requiredSelectCache = []string{"hits", "collapsed"}
	requiredTasks       = []string{"creates", "votes", "wal_appends", "wal_fsyncs",
		"wal_compactions", "shard_contention", "wal_durable_wait"}
	requiredStages = []string{"queue_wait", "decode", "snapshot", "cache_probe",
		"engine", "store", "wal_wait", "encode"}
	requiredEndpoints = []string{"jer", "select_miss", "select_warm", "pool_put",
		"pool_patch", "task_create", "task_get", "task_vote"}
	requiredRuntime = []string{"num_gc"}
	requiredSummary = []string{"count", "mean_ns"}
)

// parseMetrics decodes a /metrics body, failing on any missing key.
func parseMetrics(raw []byte) (*metricsSnap, error) {
	top, err := object(raw, "metrics")
	if err != nil {
		return nil, err
	}
	if err := require(top, "metrics", requiredTop); err != nil {
		return nil, err
	}
	blocks := []struct {
		name string
		keys []string
	}{
		{"select_cache", requiredSelectCache},
		{"tasks", requiredTasks},
		{"stages", requiredStages},
		{"endpoints", requiredEndpoints},
		{"runtime", requiredRuntime},
	}
	for _, b := range blocks {
		obj, err := object(top[b.name], b.name)
		if err != nil {
			return nil, err
		}
		if err := require(obj, b.name, b.keys); err != nil {
			return nil, err
		}
		for _, k := range b.keys {
			var sub map[string]json.RawMessage
			switch {
			case b.name == "stages", k == "wal_durable_wait":
				if sub, err = object(obj[k], b.name+"."+k); err != nil {
					return nil, err
				}
			case b.name == "endpoints":
				ep, err := object(obj[k], "endpoints."+k)
				if err != nil {
					return nil, err
				}
				if err := require(ep, "endpoints."+k, []string{"requests", "latency"}); err != nil {
					return nil, err
				}
				if sub, err = object(ep["latency"], "endpoints."+k+".latency"); err != nil {
					return nil, err
				}
			default:
				continue
			}
			if err := require(sub, b.name+"."+k, requiredSummary); err != nil {
				return nil, err
			}
		}
	}
	var m metricsSnap
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &m, nil
}

func object(raw json.RawMessage, what string) (map[string]json.RawMessage, error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil || obj == nil {
		return nil, fmt.Errorf("/metrics: %s is not an object", what)
	}
	return obj, nil
}

func require(obj map[string]json.RawMessage, what string, keys []string) error {
	var missing []string
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("/metrics: %s lacks %v", what, missing)
	}
	return nil
}

// metricsDelta is the change between two scrapes of one juryd process.
type metricsDelta struct{ a, b *metricsSnap }

// meanNS is the mean of the samples a summary gained between the
// scrapes (count and mean are exact, so their product is the sum).
func meanNS(a, b summary) float64 {
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	return (float64(b.Count)*b.MeanNS - float64(a.Count)*a.MeanNS) / float64(n)
}

// totalNS is the time a summary gained between the scrapes.
func totalNS(a, b summary) float64 {
	return float64(b.Count)*b.MeanNS - float64(a.Count)*a.MeanNS
}

// walEpoch returns the WAL-level counters for the window. They belong
// to one WAL file and restart at zero when compaction rolls the log, so
// after a compaction the window's figures are those of the current
// epoch alone (a part of the window ending at the second scrape).
func (d metricsDelta) walEpoch() (appends, fsyncs int64, durableWaitNS float64) {
	a, b := d.a.Tasks, d.b.Tasks
	if b.WALCompactions != a.WALCompactions {
		return b.WALAppends, b.WALFsyncs, b.WALDurableWait.MeanNS
	}
	return b.WALAppends - a.WALAppends, b.WALFsyncs - a.WALFsyncs, meanNS(a.WALDurableWait, b.WALDurableWait)
}

// journaled counts the writes the server acknowledged: pool writes,
// task creates, and votes and declines.
func (m *metricsSnap) journaled() int64 { return m.PoolWrites + m.Tasks.Creates + m.Tasks.Votes }

func (d metricsDelta) stageMeanNS(name string) float64 {
	return meanNS(d.a.Stages[name], d.b.Stages[name])
}

func (d metricsDelta) stageTotalNS(name string) float64 {
	return totalNS(d.a.Stages[name], d.b.Stages[name])
}

// handlerNS sums the handler time of every non-ops endpoint.
func (d metricsDelta) handlerNS() (total float64, requests int64) {
	for name, eb := range d.b.Endpoints {
		if len(name) > 4 && name[:4] == "ops_" {
			continue
		}
		ea := d.a.Endpoints[name]
		total += totalNS(ea.Latency, eb.Latency)
		requests += eb.Requests - ea.Requests
	}
	return total, requests
}

// ratio is num/den, or 0 when nothing happened.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
