package obs

import (
	"sync"
	"time"
)

// WindowedCounter tracks good/bad event counts in fixed-width time
// buckets arranged as a ring, so a caller can ask "how many good and bad
// events landed in the last W?" for any W up to the ring's horizon. It
// is the primitive under the SLO engine's multi-window burn-rate
// evaluation: one counter per objective, queried at several window
// widths against an explicit clock, so tests and CI drive it with fake
// timestamps and get deterministic answers.
//
// Events are attributed to the bucket their timestamp falls in, not the
// bucket current at the call: WAL replay backfills historical windows by
// feeding journaled event times, and the live tail extends the same
// ring. An event older than the ring's horizon (its bucket has been
// recycled by a newer one) is dropped — the windows it would land in are
// no longer queryable anyway.
type WindowedCounter struct {
	mu    sync.Mutex
	width int64 // bucket width in nanoseconds
	slots []windowSlot
}

// windowSlot is one ring bucket: the absolute bucket index it currently
// holds (unix-nanos / width; -1 when never written) and its counts.
type windowSlot struct {
	idx  int64
	good int64
	bad  int64
}

// NewWindowedCounter returns a counter with n buckets of the given
// width. The queryable horizon is n×width; both arguments are clamped
// to sane minimums so a zero-ish configuration still works.
func NewWindowedCounter(width time.Duration, n int) *WindowedCounter {
	if width <= 0 {
		width = time.Second
	}
	if n < 2 {
		n = 2
	}
	w := &WindowedCounter{width: width.Nanoseconds(), slots: make([]windowSlot, n)}
	for i := range w.slots {
		w.slots[i].idx = -1
	}
	return w
}

// Add records good and bad events at the given instant. Safe for
// concurrent use; never allocates.
func (w *WindowedCounter) Add(at time.Time, good, bad int64) {
	if good == 0 && bad == 0 {
		return
	}
	idx := at.UnixNano() / w.width
	w.mu.Lock()
	defer w.mu.Unlock()
	slot := &w.slots[int(idx%int64(len(w.slots)))]
	if slot.idx != idx {
		if idx < slot.idx {
			// Older than the ring horizon: its bucket was recycled.
			return
		}
		slot.idx = idx
		slot.good, slot.bad = 0, 0
	}
	slot.good += good
	slot.bad += bad
}

// Totals sums the good/bad counts over the window ending at now: every
// bucket whose span overlaps (now-window, now]. Buckets are whole — the
// oldest partially covered bucket counts fully, so a ratio over the
// window is accurate to one bucket width (size the width to the
// smallest window queried).
func (w *WindowedCounter) Totals(now time.Time, window time.Duration) (good, bad int64) {
	if window <= 0 {
		return 0, 0
	}
	nowIdx := now.UnixNano() / w.width
	cutoff := now.Add(-window).UnixNano()
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.slots {
		s := &w.slots[i]
		if s.idx < 0 || s.idx > nowIdx {
			continue // empty, or a bucket from the "future" of this query's clock
		}
		if (s.idx+1)*w.width <= cutoff {
			continue // bucket ends before the window starts
		}
		good += s.good
		bad += s.bad
	}
	return good, bad
}
