package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHistogramShardedMergeUnderLoad drives concurrent recorders into
// per-shard histograms while a reader sums mid-flight snapshots across
// the shards, then checks every settled shard is exact: a snapshot taken
// from a live writer must never show more bucketed mass than its Count.
func TestHistogramShardedMergeUnderLoad(t *testing.T) {
	const shards, perShard = 4, 20000
	var hs [shards]Histogram
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				hs[w].Observe(int64(w+1) * int64(i))
			}
		}(w)
	}
	// Mid-flight sums must stay internally sane: Count is derived from
	// the buckets, so the bucketed mass equals Count in every snapshot.
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for !stop.Load() {
			var count, bucketed int64
			for i := range hs {
				s := hs[i].Snapshot()
				count += s.Count
				for _, c := range s.Buckets {
					bucketed += c
				}
			}
			if bucketed != count {
				t.Errorf("mid-flight merge: %d bucketed != count %d", bucketed, count)
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	rg.Wait()

	for w := range hs {
		s := hs[w].Snapshot()
		if s.Count != perShard {
			t.Fatalf("shard %d count = %d, want %d", w, s.Count, perShard)
		}
		var bucketed int64
		for _, c := range s.Buckets {
			bucketed += c
		}
		if bucketed != s.Count {
			t.Fatalf("shard %d buckets sum to %d, count %d", w, bucketed, s.Count)
		}
		if want := int64(w+1) * perShard * (perShard - 1) / 2; s.Sum != want {
			t.Fatalf("shard %d sum = %d, want %d", w, s.Sum, want)
		}
		if want := int64(w+1) * (perShard - 1); s.Max != want {
			t.Fatalf("shard %d max = %d, want %d", w, s.Max, want)
		}
	}
}

// TestPromEmptyBucketElisionRoundTrip pins the exporter's bucket layout:
// empty buckets above the top occupied one are elided, interior empty
// buckets still emit (repeating the cumulative count), +Inf always
// appears — and the result survives the scraper-grade parser.
func TestPromEmptyBucketElisionRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(1)       // bucket 1
	h.Observe(1 << 20) // bucket 21, everything between stays empty
	var buf bytes.Buffer
	p := NewProm(&buf)
	p.Header("juryd_gap_seconds", "histogram", "Gappy latencies.")
	p.HistogramNS("juryd_gap_seconds", "", h.Snapshot())

	out := buf.String()
	fams, err := ParseProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("elided output does not parse: %v\n%s", err, out)
	}
	var buckets, infVal, count float64
	for _, s := range fams["juryd_gap_seconds"].Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			buckets++
			if s.Labels["le"] == "+Inf" {
				infVal = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	// Buckets 0..21 emit (interior empties included), bucket 22..63 are
	// elided, plus the mandatory +Inf line.
	if buckets != 23 {
		t.Errorf("bucket lines = %g, want 23:\n%s", buckets, out)
	}
	if infVal != 2 || count != 2 {
		t.Errorf("+Inf %g / count %g, want 2/2", infVal, count)
	}

	// An empty histogram degenerates to the single +Inf bucket... which
	// still must satisfy the cumulative checks.
	var empty Histogram
	buf.Reset()
	p = NewProm(&buf)
	p.Header("juryd_empty_seconds", "histogram", "No samples yet.")
	p.HistogramNS("juryd_empty_seconds", "", empty.Snapshot())
	if _, err := ParseProm(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty histogram does not parse: %v\n%s", err, buf.String())
	}
}

// TestParsePromRejectsNonFinite: juryd never exports NaN or ±Inf — every
// value is a counter, gauge, or bucket count — so the parser treats a
// non-finite sample as a broken exposition (a 0/0 ratio upstream).
func TestParsePromRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "+Inf", "-Inf", "Inf"} {
		in := fmt.Sprintf("# HELP juryd_x x\n# TYPE juryd_x gauge\njuryd_x %s\n", v)
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("value %s parsed, want non-finite rejection", v)
		}
		labeled := fmt.Sprintf("# HELP juryd_x x\n# TYPE juryd_x gauge\njuryd_x{shard=\"0\"} %s\n", v)
		if _, err := ParseProm(strings.NewReader(labeled)); err == nil {
			t.Errorf("labeled value %s parsed, want non-finite rejection", v)
		}
	}
	// +Inf stays legal where it belongs: as a le label value.
	ok := "# HELP juryd_h h\n# TYPE juryd_h histogram\n" +
		"juryd_h_bucket{le=\"+Inf\"} 1\njuryd_h_sum 1\njuryd_h_count 1\n"
	if _, err := ParseProm(strings.NewReader(ok)); err != nil {
		t.Errorf("le=+Inf label rejected: %v", err)
	}
}
