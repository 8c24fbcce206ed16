// Benchmark harness: BenchmarkExperiment runs every experiment
// cmd/jurybench regenerates, one sub-benchmark per id experiments.List()
// returns, on the same experiment code shrunk via
// experiments.QuickConfig so a full -bench=. pass stays fast.
//
// The correspondence is:
//
//	BenchmarkExperiment/table2 — Table 2 (motivation example JERs)
//	BenchmarkExperiment/fig3a  — Figure 3(a) jury size vs mean individual error rate
//	BenchmarkExperiment/fig3b  — Figure 3(b) AltrALG efficiency ± lower bound
//	BenchmarkExperiment/fig3c  — Figure 3(c) budget vs total cost (PayALG)
//	BenchmarkExperiment/fig3d  — Figure 3(d) budget vs JER (PayALG)
//	BenchmarkExperiment/fig3e  — Figure 3(e) APPX vs OPT total cost
//	BenchmarkExperiment/fig3f  — Figure 3(f) APPX vs OPT JER
//	BenchmarkExperiment/fig3g  — Figure 3(g) efficiency on micro-blog data
//	BenchmarkExperiment/fig3h  — Figure 3(h) precision & recall vs OPT
//	BenchmarkExperiment/fig3i  — Figure 3(i) jury sizes vs OPT
//
// and, for the ablations of DESIGN.md:
//
//	BenchmarkExperiment/ablation-jer       — DP vs CBA single-evaluation latency
//	BenchmarkExperiment/ablation-inc       — incremental prefix sweep vs per-size recomputation
//	BenchmarkExperiment/ablation-mc        — Monte-Carlo validation of the JER model
//	BenchmarkExperiment/ablation-baselines — solvers vs naive baselines
//	BenchmarkExperiment/ablation-engine    — parallel/cached batch scoring vs the serial loop
//	BenchmarkExperiment/ablation-pair      — PayALG pair-slot policy vs the exact optimum
//	BenchmarkExperiment/ablation-seeds     — seed sensitivity of the Figure 3(e)/(f) hit count
//	BenchmarkExperiment/ablation-wmv       — ε-aware aggregation vs plain majority voting
//
// The micro-benchmarks below time the two JER evaluators, the solvers and
// the batch engine directly: the efficiency results of Figures 3(b) and
// 3(g) without the experiment harness around them.
package juryselect_test

import (
	"context"
	"fmt"
	"testing"

	"juryselect/internal/core"
	"juryselect/internal/engine"
	"juryselect/internal/experiments"
	"juryselect/internal/jer"
	"juryselect/internal/randx"
)

func BenchmarkExperiment(b *testing.B) {
	cfg := experiments.QuickConfig()
	for _, id := range experiments.List() {
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(id, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func randomRates(n int) []float64 {
	return randx.New(7).ErrorRates(n, 0.3, 0.15)
}

// The JER_DP/JER_CBA benchmarks exercise the pooled-kernel path behind
// jer.Compute, which allocates nothing in steady state
// (TestComputeAllocations in internal/jer). JERKernel_* holds one Evaluator
// directly — the shape hot loops (engine workers, solver scans) use —
// which additionally skips the sync.Pool round-trip.
func BenchmarkJER_DP_n101(b *testing.B)   { benchJER(b, jer.DPAlgo, 101) }
func BenchmarkJER_DP_n1001(b *testing.B)  { benchJER(b, jer.DPAlgo, 1001) }
func BenchmarkJER_CBA_n101(b *testing.B)  { benchJER(b, jer.CBAAlgo, 101) }
func BenchmarkJER_CBA_n1001(b *testing.B) { benchJER(b, jer.CBAAlgo, 1001) }
func BenchmarkJER_CBA_n8191(b *testing.B) { benchJER(b, jer.CBAAlgo, 8191) }
func BenchmarkJER_Enum_n15(b *testing.B)  { benchJER(b, jer.EnumAlgo, 15) }
func BenchmarkJER_Enum_n21(b *testing.B)  { benchJER(b, jer.EnumAlgo, 21) }

func BenchmarkJERKernel_DP_n101(b *testing.B)   { benchJERKernel(b, jer.DPAlgo, 101) }
func BenchmarkJERKernel_CBA_n1001(b *testing.B) { benchJERKernel(b, jer.CBAAlgo, 1001) }

func benchJER(b *testing.B, algo jer.Algorithm, n int) {
	rates := randomRates(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jer.Compute(rates, algo); err != nil {
			b.Fatal(err)
		}
	}
}

func benchJERKernel(b *testing.B, algo jer.Algorithm, n int) {
	rates := randomRates(n)
	ev := jer.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Compute(rates, algo); err != nil {
			b.Fatal(err)
		}
	}
}

func randomJurors(n int) []core.Juror {
	src := randx.New(11)
	rates := src.ErrorRates(n, 0.3, 0.15)
	costs := src.Requirements(n, 0.1, 0.1)
	out := make([]core.Juror, n)
	for i := range out {
		out[i] = core.Juror{ErrorRate: rates[i], Cost: costs[i]}
	}
	return out
}

func BenchmarkSelectAltrFaithful_n501(b *testing.B) {
	cands := randomJurors(501)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectAltr(cands, core.AltrOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectAltrIncremental_n501(b *testing.B) {
	cands := randomJurors(501)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectAltr(cands, core.AltrOptions{Incremental: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectPay_n501(b *testing.B) {
	cands := randomJurors(501)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectPay(cands, core.PayOptions{Budget: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectOpt_n18 runs the sharded exact enumeration on GOMAXPROCS
// workers (-cpu 1 runs it on the benchmark's own goroutine).
func BenchmarkSelectOpt_n18(b *testing.B) {
	cands := randomJurors(18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectOpt(context.Background(), cands, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch JER engine benchmarks: the serial loop the engine replaces versus
// the worker-pool and warm-memo paths, on the same workload. The parallel
// figure scales with cores (values stay byte-identical — see
// TestEvaluateAllByteIdenticalToSerial in jury); the cached figure shows
// what multiset memoization buys when juries repeat. At n=11 the cached
// run matches serial by design: juries below the engine's
// CacheMinJurySize threshold bypass the memo because recomputing the DP
// is cheaper than the key build + lookup; at n=101 the memo wins.
//
//	go test -bench=BenchmarkEvaluateAll -cpu 1,8
func benchmarkJuries(count, size int) [][]float64 {
	src := randx.New(17)
	juries := make([][]float64, count)
	for i := range juries {
		juries[i] = src.ErrorRates(size, 0.3, 0.15)
	}
	return juries
}

func BenchmarkEvaluateAll(b *testing.B) {
	for _, size := range []int{11, 101} {
		juries := benchmarkJuries(1000, size)
		b.Run(fmt.Sprintf("serial/n%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, rates := range juries {
					if _, err := jer.Compute(rates, jer.Auto); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/n%d", size), func(b *testing.B) {
			eng := engine.New(engine.Options{CacheSize: -1})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range eng.EvaluateAll(ctx, juries) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("cached/n%d", size), func(b *testing.B) {
			eng := engine.New(engine.Options{})
			ctx := context.Background()
			eng.EvaluateAll(ctx, juries) // warm the memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range eng.EvaluateAll(ctx, juries) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
