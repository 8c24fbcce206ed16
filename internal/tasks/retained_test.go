package tasks_test

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"juryselect/internal/insight"
	"juryselect/internal/lifecycle"
	"juryselect/internal/pool"
	"juryselect/internal/randx"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestTaskRetainedBytes guards the bytes a task retains in juryd: the
// store with the insight and lifecycle sinks attached as juryd attaches
// them, over 64 pools of 1,001 jurors drawn as perfbench draws its
// task-lifecycle crowd (ε ~ TruncNormal(0.3, 0.15), cost ~
// TruncNormal(0.5, 0.2)), from inputs kept alive so the ID strings are
// shared. Pay tasks at budgets 4, 6 and 8 with target confidence 1 ask
// every invitee; 10% of invitations are declined, and every invitation
// is answered. Warm-up tasks fill the insight pair map to its cap first,
// so the measured tasks pay only for what grows with them. Each task
// must retain at most 2,376 B (2,160 read, plus 10%), the store's share
// at most 1,000 B; dropping the store and then the lifecycle engine
// splits out what each alone holds.
func TestTaskRetainedBytes(t *testing.T) {
	const (
		nPools  = 64
		n       = 1001
		warmup  = 200
		measure = 2000
	)
	crowd := randx.New(1)
	inputs := make([][]jury.Juror, nPools)
	for p := range inputs {
		src := crowd.Split("pool-t" + strconv.Itoa(p))
		inputs[p] = make([]jury.Juror, n)
		for i := range inputs[p] {
			inputs[p][i] = jury.Juror{ID: "j" + strconv.Itoa(i),
				ErrorRate: src.TruncNormal(0.3, 0.15, 0, 1), Cost: src.TruncNormal(0.5, 0.2, 0, 1e9)}
		}
	}
	pools, eng := pool.NewStore(), jury.NewEngine(jury.BatchOptions{})
	ins, lce := insight.New(0), lifecycle.New(0)
	st, err := tasks.Open(tasks.Config{Pools: pools, Engine: eng, Events: tasks.Sinks(ins, lce)})
	if err != nil {
		t.Fatal(err)
	}
	for p, jurors := range inputs {
		if _, err := st.PutPool("t"+strconv.Itoa(p), jurors); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	budgets := []float64{4, 6, 8}
	run := func(k int) {
		rng := rand.New(rand.NewSource(int64(k)))
		v, err := st.Create(ctx, tasks.Spec{Pool: "t" + strconv.Itoa(rng.Intn(nPools)),
			Strategy: tasks.StrategyPay, Budget: budgets[k%len(budgets)], TargetConfidence: 1})
		if err != nil {
			t.Fatal(err)
		}
		truth := rng.Intn(2) == 0
		for v.Status == tasks.StatusOpen || v.Status == tasks.StatusAwaitingVotes {
			for _, j := range v.Jurors {
				if j.State != tasks.JurorInvited {
					continue
				}
				if rng.Float64() < 0.1 {
					v, err = st.Decline(ctx, v.ID, j.ID)
				} else {
					v, err = st.Vote(ctx, v.ID, j.ID, truth == (rng.Float64() >= j.ErrorRate))
				}
				if err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	for k := 0; k < warmup; k++ {
		run(k)
	}
	base := heapAfterGC()
	for k := warmup; k < warmup+measure; k++ {
		run(k)
	}
	all := heapAfterGC()
	if got := st.Stats(); got.Tasks != warmup+measure || got.Open+got.AwaitingVotes != 0 {
		t.Fatalf("store stats %+v, want %d closed tasks", got, warmup+measure)
	}
	if ls := lce.Stats(); ls.Declines == 0 || ls.Replacements == 0 {
		t.Fatalf("no decline or replacement in the stream: %+v", ls)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = nil
	noStore := heapAfterGC()
	runtime.KeepAlive(lce)
	lce = nil
	noLifecycle := heapAfterGC()
	runtime.KeepAlive(inputs)
	runtime.KeepAlive(pools)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(ins)

	perTask := (float64(all) - float64(base)) / measure
	store := (float64(all) - float64(noStore)) / (warmup + measure)
	timelines := (float64(noStore) - float64(noLifecycle)) / (warmup + measure)
	t.Logf("%.0f B retained per task: the store alone %.0f B, the lifecycle engine alone %.0f B", perTask, store, timelines)
	if perTask > 2376 {
		t.Fatalf("tasks retain %.0f B each, want at most 2,376", perTask)
	}
	if store > 1000 {
		t.Fatalf("the store retains %.0f B per task, want at most 1,000", store)
	}
}
