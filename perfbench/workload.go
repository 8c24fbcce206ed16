package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"juryselect/internal/dataio"
	"juryselect/internal/randx"
	"juryselect/internal/server"
)

// opKind is one kind of request the generator sends.
type opKind uint8

const (
	opSelectPool   opKind = iota // POST /v1/select against a stored pool
	opSelectInline               // POST /v1/select with an inline candidate set
	opJER                        // POST /v1/jer
	opPatch                      // PATCH /v1/pools/{name}/jurors (vote observations)
	opCreate                     // POST /v1/tasks
	opVote                       // POST /v1/tasks/{id}/votes with a vote
	opDecline                    // POST /v1/tasks/{id}/votes with a decline
	opPoll                       // GET /v1/tasks/{id}
	numOpKinds
)

var opNames = [numOpKinds]string{"select_pool", "select_inline", "jer", "patch", "create", "vote", "decline", "poll"}

func (k opKind) String() string { return opNames[k] }

// write reports whether the op is journaled (a write); everything else
// is a read.
func (k opKind) write() bool {
	return k == opPatch || k == opCreate || k == opVote || k == opDecline
}

// op is one scheduled request. at is the intended send time, measured
// from the start of the phase; latency is timed from it.
type op struct {
	at     time.Duration
	kind   opKind
	pool   string    // select_pool, patch, create
	model  string    // select_*: "altr" or "pay"
	budget float64   // select_* (pay), create
	body   []byte    // pre-encoded request body (pool selects, patch)
	cands  *candSet  // select_inline: the question's candidate set
	rates  []float64 // jer: the jury's error rates
	task   int       // create, vote, decline, poll: the task's index in the run
	juror  string    // vote, decline
	vote   bool      // vote
	sample bool      // keep the response for the post-run JER check
}

// workload is one traffic mix. Root ops arrive on a seeded Poisson
// schedule at rate per second; task-lifecycle adds follow-up ops (votes,
// declines, polls) as responses arrive.
type workload struct {
	name  string
	rate  float64 // open-loop root ops per second
	pools []string
	// draw returns the next root op (at unset) from the workload's
	// stream; it may keep state across calls (candidate-set reuse).
	newDrawer func(g *gen) func() op
}

// Pool and candidate generation follow the paper's synthetic setup
// (DESIGN.md §5): ε ~ TruncNormal(0.3, 0.15) on (0, 1), payment
// requirements ~ TruncNormal(0.5, 0.2) on [0, ∞).
const (
	poolSize   = 1001
	epsMean    = 0.3
	epsSigma   = 0.15
	costMean   = 0.5
	costSigma  = 0.2
	selectKeys = 4 // pool-select pools; with 1 altr + len(poolBudgets) pay keys each
	// taskPools is the number of task-lifecycle pools. A pay jury's size
	// depends on the few cheapest reliable jurors a pool happens to
	// hold, so the run averages over many (pool, budget) pairs.
	taskPools = 64
)

var (
	poolBudgets   = []float64{2, 4, 8, 16}
	inlineBudgets = []float64{2, 4, 8}
	taskBudgets   = []float64{4, 6, 8}
)

// Each workload's root-op mix, in ops per block of 20: blocks are dealt
// in a seeded order (see mixer), so every run sends exactly these
// shares and seeds differ only in order and parameters.
var (
	// pool-select: PATCH vote observations, altr selects, pay selects.
	poolMix = []int{1, 4, 15}
	// inline-select: PATCH to a directory pool no select reads (journaled
	// writes for the write metrics, no cache entry touched), inline altr,
	// inline pay, /v1/jer on a large jury.
	inlineMix = []int{1, 9, 6, 4}
)

const (
	inlineReuseShare = 0.20 // inline-select: questions reusing an earlier candidate set
	inlineMinN       = 20
	inlineMaxN       = 2000

	// task-lifecycle: every task asks its whole jury and decides by
	// majority (target confidence 1 disables early stop), the paper's
	// voting model, so the realized verdict error is the jury's JER.
	targetConfidence = 1.0
	declineShare     = 0.10                   // task-lifecycle: invited jurors who decline
	voteDelayMean    = 150 * time.Millisecond // task-lifecycle: invitation to answer
	pollEvery        = 250 * time.Millisecond // task-lifecycle: asker's GET period
	maxPolls         = 8
)

var workloads = []*workload{
	// The cached read path: each PATCH bumps its pool's version and
	// invalidates its keys, so the write share sets the cache hit ratio.
	{
		name:  "pool-select",
		rate:  800,
		pools: numbered("p", selectKeys),
		newDrawer: func(g *gen) func() op {
			src := g.src.Split("pool-select")
			m := &mixer{src: src, counts: poolMix}
			return func() op {
				p := fmt.Sprintf("p%d", src.Intn(selectKeys))
				switch m.next() {
				case 0:
					return op{kind: opPatch, pool: p, body: g.patchBody(src, p)}
				case 1:
					return op{kind: opSelectPool, pool: p, model: "altr",
						body: mustJSON(server.SelectRequest{Pool: p, Model: "altr"})}
				default:
					b := poolBudgets[src.Intn(len(poolBudgets))]
					return op{kind: opSelectPool, pool: p, model: "pay", budget: b,
						body: mustJSON(server.SelectRequest{Pool: p, Model: "pay", Budget: b})}
				}
			}
		},
	},
	// The cache-bypassing path: decode, the engine, the core sweeps and
	// the JER kernels do the work.
	{
		name:  "inline-select",
		rate:  150,
		pools: []string{"dir"},
		newDrawer: func(g *gen) func() op {
			src := g.src.Split("inline-select")
			m := &mixer{src: src, counts: inlineMix}
			var recent []*candSet
			return func() op {
				class := m.next()
				if class == 0 {
					return op{kind: opPatch, pool: "dir", body: g.patchBody(src, "dir")}
				}
				if class == 3 {
					n := logUniform(src, 500, inlineMaxN)
					rates := make([]float64, n)
					for i := range rates {
						rates[i] = src.TruncNormal(epsMean, epsSigma, 0, 1)
					}
					return op{kind: opJER, rates: rates}
				}
				var cs *candSet
				if len(recent) > 0 && src.Float64() < inlineReuseShare {
					cs = recent[src.Intn(len(recent))]
				} else {
					n := logUniform(src, inlineMinN, inlineMaxN)
					cs = &candSet{eps: make([]float64, n), cost: make([]float64, n)}
					for i := 0; i < n; i++ {
						cs.eps[i] = src.TruncNormal(epsMean, epsSigma, 0, 1)
						cs.cost[i] = src.TruncNormal(costMean, costSigma, 0, 1e9)
					}
					if len(recent) < 64 {
						recent = append(recent, cs)
					} else {
						recent[src.Intn(len(recent))] = cs
					}
				}
				o := op{kind: opSelectInline, model: "altr", cands: cs}
				if class == 2 {
					o.model, o.budget = "pay", inlineBudgets[src.Intn(len(inlineBudgets))]
				}
				return o
			}
		},
	},
	// The durable write path: task creates, seeded votes and declines
	// through the WAL's group commit and compaction.
	{
		name:  "task-lifecycle",
		rate:  12,
		pools: numbered("t", taskPools),
		newDrawer: func(g *gen) func() op {
			src := g.src.Split("task-lifecycle")
			m := &mixer{src: src, counts: []int{1, 1, 1}} // one task per budget in each block
			return func() op {
				p := fmt.Sprintf("t%d", src.Intn(taskPools))
				b := taskBudgets[m.next()]
				return op{kind: opCreate, pool: p, budget: b}
			}
		},
	},
}

// mixer deals op classes in blocks holding exactly counts[c] ops of
// class c, each block in a seeded random order.
type mixer struct {
	src    *randx.Source
	counts []int
	block  []int
}

func (m *mixer) next() int {
	if len(m.block) == 0 {
		var sorted []int
		for c, n := range m.counts {
			for i := 0; i < n; i++ {
				sorted = append(sorted, c)
			}
		}
		for _, i := range m.src.Perm(len(sorted)) {
			m.block = append(m.block, sorted[i])
		}
	}
	c := m.block[0]
	m.block = m.block[1:]
	return c
}

func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// crowdSeed draws every workload's pools. The crowd is the same for
// every --seed, as a service's juror population is; the seed draws the
// traffic on it. A pay jury's size hangs on the few cheap reliable
// jurors a pool holds, so pools drawn per seed made votes_per_verdict
// and juryd's memory move from seed to seed with the crowd rather than
// with the code.
const crowdSeed = 1

// gen holds one run's seeded inputs: the pools and the root-op streams.
type gen struct {
	seed  int64
	src   *randx.Source
	pools map[string][]dataio.JurorJSON
	trueE map[string]map[string]float64 // pool -> juror -> generated ε
	w     *workload
}

func newGen(w *workload, seed int64) *gen {
	g := &gen{seed: seed, src: randx.New(seed), w: w,
		pools: map[string][]dataio.JurorJSON{}, trueE: map[string]map[string]float64{}}
	crowd := randx.New(crowdSeed)
	for _, p := range w.pools {
		js := candidates(crowd.Split("pool-"+p), poolSize, "j")
		g.pools[p] = js
		m := make(map[string]float64, len(js))
		for _, j := range js {
			m[j.ID] = j.ErrorRate
		}
		g.trueE[p] = m
	}
	return g
}

// candidates draws n jurors with paper-style error rates and costs.
func candidates(src *randx.Source, n int, prefix string) []dataio.JurorJSON {
	out := make([]dataio.JurorJSON, n)
	for i := range out {
		out[i] = dataio.JurorJSON{
			ID:        prefix + strconv.Itoa(i),
			ErrorRate: src.TruncNormal(epsMean, epsSigma, 0, 1),
			Cost:      src.TruncNormal(costMean, costSigma, 0, 1e9),
		}
	}
	return out
}

// patchBody draws one PATCH of vote observations for a random juror of
// the pool: total ~ U{1..10} votes, each wrong with the juror's
// generated ε. Observations add up, so the final pool state does not
// depend on the order PATCHes land in.
func (g *gen) patchBody(src *randx.Source, pool string) []byte {
	js := g.pools[pool]
	j := js[src.Intn(len(js))]
	total := 1 + src.Intn(10)
	wrong := 0
	for i := 0; i < total; i++ {
		if src.Float64() < j.ErrorRate {
			wrong++
		}
	}
	return mustJSON(server.PatchJurorsRequest{Updates: []server.JurorUpdateJSON{{
		ID: j.ID, Votes: &server.VotesJSON{Wrong: int64(wrong), Total: int64(total)},
	}}})
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(src *randx.Source, lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + src.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	return int(math.Round(v))
}

// schedule returns the open-loop root ops for a window of the given
// length: Poisson arrivals at the workload's rate, drawn from the seed.
func (g *gen) schedule(window time.Duration) []op {
	arrivals := g.src.Split("arrivals-" + g.w.name)
	draw := g.w.newDrawer(g)
	var ops []op
	t := 0.0
	for {
		t += -math.Log(1-arrivals.Float64()) / g.w.rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return ops
		}
		o := draw()
		o.at = at
		o.task = len(ops)
		o.sample = arrivals.Intn(jerCheckEvery) == 0
		ops = append(ops, o)
	}
}

// jerCheckEvery samples one in this many selects for the exact-JER check.
const jerCheckEvery = 32

// unit maps (seed, label, parts) to a uniform variate in [0, 1): the
// task-lifecycle follow-ups (latent truth, each juror's answer, delay
// and decline) are pure functions of the seed, the task index and the
// juror, so they do not depend on the order responses arrive in.
func unit(seed int64, label string, task int, juror string) float64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(task))
	h.Write(b[:])
	h.Write([]byte(label))
	h.Write([]byte(juror))
	return float64(h.Sum64()>>11) / (1 << 53)
}

// truth is the latent answer of task k.
func (g *gen) truth(k int) bool { return unit(g.seed, "truth", k, "") < 0.5 }

// answer is juror j's reaction to task k's invitation: a decline, or a
// vote that is correct with probability 1−ε_j, sent after a delay.
func (g *gen) answer(k int, pool, juror string) (decline, vote bool, delay time.Duration) {
	if unit(g.seed, "decline", k, juror) < declineShare {
		decline = true
	}
	correct := unit(g.seed, "vote", k, juror) >= g.trueE[pool][juror]
	vote = g.truth(k) == correct
	u := unit(g.seed, "delay", k, juror)
	delay = time.Duration(-math.Log(1-u) * float64(voteDelayMean))
	return decline, vote, delay
}

// candSet is an inline candidate set, kept compact (a question's set
// can hold 2,000 jurors) and encoded when its request is sent. Juror i
// is named "c<i>".
type candSet struct {
	eps, cost []float64
}

// appendBody appends the op's JSON request body: the inline select or
// /v1/jer body built from its compact inputs, or the pre-encoded one.
func (o *op) appendBody(b []byte) []byte {
	switch o.kind {
	case opSelectInline:
		b = append(b, `{"candidates":[`...)
		for i := range o.cands.eps {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":"c`...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `","error_rate":`...)
			b = strconv.AppendFloat(b, o.cands.eps[i], 'g', -1, 64)
			b = append(b, `,"cost":`...)
			b = strconv.AppendFloat(b, o.cands.cost[i], 'g', -1, 64)
			b = append(b, '}')
		}
		b = append(b, `],"model":"`...)
		b = append(b, o.model...)
		b = append(b, '"')
		if o.model == "pay" {
			b = append(b, `,"budget":`...)
			b = strconv.AppendFloat(b, o.budget, 'g', -1, 64)
		}
		return append(b, '}')
	case opJER:
		b = append(b, `{"error_rates":[`...)
		for i, r := range o.rates {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, r, 'g', -1, 64)
		}
		return append(b, "]}"...)
	}
	return append(b, o.body...)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return b
}
