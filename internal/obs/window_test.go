package obs

import (
	"sync"
	"testing"
	"time"
)

var windowEpoch = time.Unix(1_700_000_000, 0).UTC()

func TestWindowedCounterBasic(t *testing.T) {
	w := NewWindowedCounter(time.Minute, 10)
	now := windowEpoch
	w.Add(now, 3, 1)
	good, bad := w.Totals(now, time.Minute)
	if good != 3 || bad != 1 {
		t.Fatalf("Totals = (%d, %d), want (3, 1)", good, bad)
	}
	// Same bucket accumulates.
	w.Add(now.Add(10*time.Second), 2, 0)
	good, bad = w.Totals(now.Add(10*time.Second), time.Minute)
	if good != 5 || bad != 1 {
		t.Fatalf("Totals = (%d, %d), want (5, 1)", good, bad)
	}
}

func TestWindowedCounterWindowing(t *testing.T) {
	w := NewWindowedCounter(time.Minute, 10)
	base := windowEpoch.Truncate(time.Minute)
	for i := 0; i < 5; i++ {
		w.Add(base.Add(time.Duration(i)*time.Minute), 1, 1)
	}
	now := base.Add(4*time.Minute + 30*time.Second)
	// A 2-minute window ending mid-bucket covers buckets 3 and 4 fully
	// plus the partially overlapped bucket 2 (whole-bucket resolution).
	good, bad := w.Totals(now, 2*time.Minute)
	if good != 3 || bad != 3 {
		t.Fatalf("2m Totals = (%d, %d), want (3, 3)", good, bad)
	}
	// The full horizon covers everything.
	good, bad = w.Totals(now, 10*time.Minute)
	if good != 5 || bad != 5 {
		t.Fatalf("10m Totals = (%d, %d), want (5, 5)", good, bad)
	}
}

func TestWindowedCounterRecyclesOldBuckets(t *testing.T) {
	w := NewWindowedCounter(time.Minute, 4)
	base := windowEpoch.Truncate(time.Minute)
	w.Add(base, 7, 0)
	// 4 buckets later the same ring slot is reused for the new bucket.
	later := base.Add(4 * time.Minute)
	w.Add(later, 1, 0)
	good, _ := w.Totals(later, 4*time.Minute)
	if good != 1 {
		t.Fatalf("Totals after recycle = %d, want 1 (old bucket gone)", good)
	}
	// An event older than the horizon is dropped, not misfiled.
	w.Add(base, 9, 9)
	good, bad := w.Totals(later, 4*time.Minute)
	if good != 1 || bad != 0 {
		t.Fatalf("Totals after stale add = (%d, %d), want (1, 0)", good, bad)
	}
}

func TestWindowedCounterReplayBackfill(t *testing.T) {
	// Historical timestamps fed in order (WAL replay) populate the same
	// windows a live feed at those instants would have.
	live := NewWindowedCounter(30*time.Second, 20)
	replay := NewWindowedCounter(30*time.Second, 20)
	base := windowEpoch
	stamps := []time.Duration{0, 10 * time.Second, 65 * time.Second, 200 * time.Second}
	for _, d := range stamps {
		live.Add(base.Add(d), 1, 0)
	}
	for _, d := range stamps {
		replay.Add(base.Add(d), 1, 0)
	}
	now := base.Add(4 * time.Minute)
	for _, win := range []time.Duration{time.Minute, 5 * time.Minute} {
		lg, lb := live.Totals(now, win)
		rg, rb := replay.Totals(now, win)
		if lg != rg || lb != rb {
			t.Fatalf("window %v: live (%d,%d) != replay (%d,%d)", win, lg, lb, rg, rb)
		}
	}
}

func TestWindowedCounterFutureBucketsExcluded(t *testing.T) {
	// A query with an earlier clock than some recorded events must not
	// count them (the SLO engine evaluates with an injectable clock that
	// can lag a replayed event stream).
	w := NewWindowedCounter(time.Minute, 10)
	base := windowEpoch.Truncate(time.Minute)
	w.Add(base, 1, 0)
	w.Add(base.Add(3*time.Minute), 1, 0)
	good, _ := w.Totals(base.Add(time.Minute), 5*time.Minute)
	if good != 1 {
		t.Fatalf("Totals with lagging clock = %d, want 1", good)
	}
}

func TestWindowedCounterConcurrent(t *testing.T) {
	w := NewWindowedCounter(time.Millisecond, 64)
	base := windowEpoch
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Add(base.Add(time.Duration(i%10)*time.Millisecond), 1, 0)
			}
		}(g)
	}
	wg.Wait()
	good, bad := w.Totals(base.Add(10*time.Millisecond), 64*time.Millisecond)
	if good != 8000 || bad != 0 {
		t.Fatalf("Totals = (%d, %d), want (8000, 0)", good, bad)
	}
}
