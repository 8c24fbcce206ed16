package tasks

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// replayChunkSize is the number of WAL records decoded per pipeline
// chunk; replayPipelineMin is the log size below which the serial path
// is cheaper than starting the pipeline.
const (
	replayChunkSize   = 256
	replayPipelineMin = 1024
)

// replayChunkPool recycles per-chunk record slices across replays (and
// across chunks within one replay: the apply loop returns a chunk's
// slice as soon as it has been applied).
var replayChunkPool = sync.Pool{
	New: func() any {
		s := make([]record, 0, replayChunkSize)
		return &s
	},
}

// recChunk is one decoded chunk handed from the decoders to the apply
// loop.
type recChunk struct {
	recs *[]record
	err  error
}

// replayRecords decodes and applies the intact WAL records. Small logs
// decode inline; past replayPipelineMin the decode fans out to a small
// worker pool by chunk while the apply loop consumes chunks strictly in
// index order — application must stay sequential, because WAL order is
// application order (the byte-identical-recovery invariant). Decoding,
// by contrast, is pure per-record work and parallelizes freely.
func (s *Store) replayRecords(records []walRecord) error {
	if len(records) < replayPipelineMin {
		tab := newInternTable()
		for i := range records {
			rec, err := decodeRecord(records[i].payload, tab)
			if err != nil {
				return err
			}
			if err := s.applyRecord(&rec); err != nil {
				return fmt.Errorf("tasks: replaying %s record: %w", rec.Type, err)
			}
		}
		return nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	nChunks := (len(records) + replayChunkSize - 1) / replayChunkSize
	results := make([]chan recChunk, nChunks)
	for i := range results {
		results[i] = make(chan recChunk, 1) // buffered: a decoder never blocks on the applier
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			tab := newInternTable() // per-goroutine: internTable is not concurrency-safe
			for {
				i := int(next.Add(1)) - 1
				if i >= nChunks {
					return
				}
				lo := i * replayChunkSize
				hi := min(lo+replayChunkSize, len(records))
				sp := replayChunkPool.Get().(*[]record)
				recs := (*sp)[:0]
				var cerr error
				for _, r := range records[lo:hi] {
					rec, err := decodeRecord(r.payload, tab)
					if err != nil {
						cerr = err
						break
					}
					recs = append(recs, rec)
				}
				*sp = recs
				results[i] <- recChunk{recs: sp, err: cerr}
			}
		}()
	}
	for i := 0; i < nChunks; i++ {
		c := <-results[i]
		if c.err != nil {
			return c.err // decoders drain into their buffered channels and exit
		}
		for j := range *c.recs {
			rec := &(*c.recs)[j]
			if err := s.applyRecord(rec); err != nil {
				return fmt.Errorf("tasks: replaying %s record: %w", rec.Type, err)
			}
		}
		replayChunkPool.Put(c.recs)
	}
	return nil
}
