package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// client is the generator's HTTP client: one keep-alive connection per
// worker, no proxy, no compression.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into buf. reqID,
// when non-zero, travels in a header so a traced server can join its
// span to the client's.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer, reqID uint64) (int, error) {
	var rd io.Reader // a nil *bytes.Reader would read as a body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(reqID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

const reqIDHeader = "X-Bench-Req"

// sample is one completed op: latency is measured from the intended send
// time, so a stall delays every op queued behind it.
type sample struct {
	kind opKind
	at   time.Duration // intended send, from phase start
	lag  time.Duration // actual send − intended
	lat  time.Duration // completion − intended
	ok   bool
}

// opHeap orders pending ops by intended send time (FIFO among equals).
type opHeap []queued

type queued struct {
	op
	seq uint64
}

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(queued)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// spanHook receives each completed client call in a traced run.
type spanHook func(o *op, reqID uint64, send, done time.Time, ok bool)

// phase runs one load phase with a fixed set of workers.
//
// Open loop: every op is sent at its intended time whatever the state
// of earlier ops, up to the worker count in flight; ops that find every
// worker busy wait in the queue and that wait counts in their latency.
// Closed loop: each worker sends its next op as soon as the previous one
// completes; the queue is refilled from the root-op stream.
type phase struct {
	c       *client
	st      *runState
	workers int
	closed  bool
	refill  func() op // closed loop: next root op
	hook    spanHook

	mu       sync.Mutex
	q        opHeap
	seq      uint64
	inflight int
	wake     chan struct{}
	start    time.Time
	stop     time.Time // no op starts after this instant
	nextReq  uint64

	samples [][]sample
}

func newPhase(c *client, st *runState, workers int) *phase {
	return &phase{c: c, st: st, workers: workers, wake: make(chan struct{}, 1)}
}

// push schedules an op. Safe from any goroutine.
func (p *phase) push(o op) {
	p.mu.Lock()
	p.pushLocked(o)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *phase) pushLocked(o op) {
	p.seq++
	heap.Push(&p.q, queued{op: o, seq: p.seq})
}

// run executes the phase: ops already pushed (and any follow-ups) until
// the queue drains or stop passes. It returns every worker's samples.
func (p *phase) run(start time.Time, stop time.Time) []sample {
	p.start, p.stop = start, stop
	p.st.phase = p
	p.samples = make([][]sample, p.workers)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.worker(w)
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range p.samples {
		all = append(all, s...)
	}
	return all
}

func (p *phase) worker(w int) {
	buf := new(bytes.Buffer)
	var scratch []byte
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		o, ok := p.next(timer)
		if !ok {
			return
		}
		s := p.exec(&o, buf, &scratch)
		p.samples[w] = append(p.samples[w], s)
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// next blocks until an op is due and claims it, or reports that the
// phase is over.
func (p *phase) next(timer *time.Timer) (op, bool) {
	p.mu.Lock()
	for {
		now := time.Now()
		if !now.Before(p.stop) {
			p.mu.Unlock()
			return op{}, false
		}
		if p.q.Len() == 0 {
			if p.closed {
				p.pushLocked(p.refill())
				continue
			}
			if p.inflight == 0 {
				p.mu.Unlock()
				return op{}, false
			}
		} else {
			due := p.start.Add(p.q[0].at)
			if p.closed || !now.Before(due) {
				o := heap.Pop(&p.q).(queued).op
				if p.st.skip(&o) {
					continue
				}
				p.inflight++
				p.mu.Unlock()
				return o, true
			}
		}
		wait := 5 * time.Millisecond
		if p.q.Len() > 0 {
			if d := time.Until(p.start.Add(p.q[0].at)); d < wait {
				wait = d
			}
		}
		p.mu.Unlock()
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-p.wake:
			if !timer.Stop() {
				<-timer.C
			}
		}
		p.mu.Lock()
	}
}

// exec sends one op, checks its response and schedules follow-ups.
func (p *phase) exec(o *op, buf *bytes.Buffer, scratch *[]byte) sample {
	method, path, body := p.st.request(o, scratch)
	floor := p.st.versionFloor(o)
	var reqID uint64
	if p.hook != nil {
		p.mu.Lock()
		p.nextReq++
		reqID = p.nextReq
		p.mu.Unlock()
	}
	send := time.Now()
	status, err := p.c.do(method, path, body, buf, reqID)
	done := time.Now()
	ok := err == nil && p.st.handle(o, status, buf.Bytes(), floor, done.Sub(p.start))
	if err != nil {
		p.st.fail(fmt.Sprintf("%s %s: %v", method, path, err))
	}
	if p.hook != nil {
		p.hook(o, reqID, send, done, ok)
	}
	at, intended := o.at, p.start.Add(o.at)
	if p.closed {
		at, intended = send.Sub(p.start), send
	}
	return sample{kind: o.kind, at: at, lag: send.Sub(intended), lat: done.Sub(intended), ok: ok}
}

// taskPath renders a task's URL path.
func taskPath(id string) string { return "/v1/tasks/" + id }
