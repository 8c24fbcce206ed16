// Command jurybench regenerates the paper's tables and figures.
//
// Usage:
//
//	jurybench [-exp table2,fig3a,...|all] [-quick] [-seed N] [-workers N] [-list]
//
// Each experiment prints the rows/series the corresponding paper artifact
// reports (Table 2 and Figures 3(a)–3(i)) plus the ablation studies from
// DESIGN.md. -quick shrinks the workloads to CI scale; the default runs at
// paper scale and can take minutes for the efficiency figures. An -exp
// list that names no experiment is a usage error (exit status 2).
//
// Timings are plain go test benchmarks: BenchmarkExperiment in the module
// root runs every experiment at -quick scale, and each package benchmarks
// its own hot paths, e.g.
//
//	go test -run '^$' -bench BenchmarkJER_DP_n1001 -benchmem -count 5 .
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"juryselect/internal/experiments"
)

func main() {
	var cfg benchConfig
	flag.StringVar(&cfg.exp, "exp", "all", "comma-separated experiment ids, or 'all'")
	flag.BoolVar(&cfg.quick, "quick", false, "run shrunk workloads (CI scale)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed for synthetic workloads")
	flag.IntVar(&cfg.workers, "workers", 0, "engine worker pool size (0 = all cores); results are identical for every value")
	flag.BoolVar(&cfg.list, "list", false, "list experiment ids and exit")
	flag.Parse()
	os.Exit(runBench(cfg, os.Stdout, os.Stderr))
}

type benchConfig struct {
	exp     string
	quick   bool
	seed    int64
	workers int
	list    bool
}

func runBench(cfg benchConfig, out, errOut io.Writer) int {
	if cfg.list {
		for _, id := range experiments.List() {
			fmt.Fprintln(out, id)
		}
		return 0
	}

	ecfg := experiments.DefaultConfig()
	if cfg.quick {
		ecfg = experiments.QuickConfig()
	}
	ecfg.Seed = cfg.seed
	ecfg.Workers = cfg.workers

	ids := experiments.List()
	if cfg.exp != "all" {
		ids = nil
		for _, id := range strings.Split(cfg.exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			fmt.Fprintf(errOut, "jurybench: -exp %q names no experiment; see -list\n", cfg.exp)
			return 2
		}
	}
	failed := 0
	for _, id := range ids {
		res, err := experiments.Run(id, ecfg)
		if err != nil {
			fmt.Fprintf(errOut, "jurybench: %v\n", err)
			failed++
			continue
		}
		fmt.Fprintf(out, "# %s — %s (took %v)\n", res.ID, res.Title, res.Elapsed.Round(time.Millisecond))
		if res.Table != nil {
			if err := res.Table.Render(out); err != nil {
				fmt.Fprintf(errOut, "jurybench: rendering %s: %v\n", id, err)
				failed++
			}
		}
		for _, n := range res.Notes {
			fmt.Fprintf(out, "note: %s\n", n)
		}
		fmt.Fprintln(out)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
