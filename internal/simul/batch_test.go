package simul

import (
	"context"
	"reflect"
	"testing"

	"juryselect/internal/server"
)

// TestBatchHTTPMatchesInProcess is the batch-protocol parity contract:
// with Options.Batch set, the in-process backend's batch task walk and
// the HTTP backend's real POST /v1/tasks/{id}/votes/batch round trips
// (plus select coalescing through /v1/select/batch) walk the exact same
// decision trajectory. Batch mode draws a whole round upfront, so its
// trajectories legitimately differ from sequential mode — the contract
// is determinism at the same setting, across transports.
func TestBatchHTTPMatchesInProcess(t *testing.T) {
	scenarios := []Scenario{
		{Name: "batch-task-parity", Seed: 41, Steps: 25, Population: 14, Replications: 2,
			Lifecycle: LifecycleTask, Availability: 0.75},
		{Name: "batch-task-parity-fixed", Seed: 41, Steps: 15, Population: 14, Replications: 1,
			Lifecycle: LifecycleTask, TargetConfidence: 1, Availability: 0.9,
			Drift: DriftSpec{Model: DriftWalk, Sigma: 0.02}, ChurnPerStep: 0.5},
		// Budget 0.5 buys a three-juror jury with little slack: most
		// declines free too little for any replacement to fit, and some
		// tasks expire with their jury exhausted.
		{Name: "batch-task-parity-pay", Seed: 41, Steps: 15, Population: 14, Replications: 1,
			Lifecycle: LifecycleTask, Strategy: StrategyPay, Budget: 0.5, Availability: 0.8},
		{Name: "batch-select-parity", Seed: 13, Steps: 30, Population: 12, Replications: 2,
			Drift: DriftSpec{Model: DriftWalk, Sigma: 0.02}, ChurnPerStep: 0.7, Availability: 0.8},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			local, err := Run(context.Background(), sc, Options{Mode: ModeInProcess, Batch: true, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			ts := newJuryd(t, server.Config{})
			remote, err := Run(context.Background(), sc, Options{
				Mode: ModeHTTP, Addr: ts.URL, Client: ts.Client(), Batch: true, Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if remote.Summary.TotalShed != 0 {
				t.Fatalf("unloaded juryd shed %d requests", remote.Summary.TotalShed)
			}
			for i := range local.Replications {
				lr, rr := local.Replications[i], remote.Replications[i]
				if !reflect.DeepEqual(lr.Trace, rr.Trace) {
					t.Fatalf("rep %d: batch traces diverge between modes", i)
				}
				if lr.TotalVotes != rr.TotalVotes || lr.TotalDeclines != rr.TotalDeclines ||
					lr.Replacements != rr.Replacements || lr.EarlyStopped != rr.EarlyStopped ||
					lr.Accuracy != rr.Accuracy {
					t.Fatalf("rep %d: batch aggregates diverge:\nlocal  %+v\nremote %+v", i, lr, rr)
				}
			}
		})
	}
}

// TestBatchSequentialDivergenceIsBounded documents the batch/sequential
// relationship on the task lifecycle: both settings decide the same
// questions from the same worlds, so aggregate accuracy should be in the
// same ballpark even though the per-step vote trajectories differ (batch
// draws whole rounds upfront).
func TestBatchSequentialDivergenceIsBounded(t *testing.T) {
	sc := Scenario{Name: "batch-vs-seq", Seed: 7, Steps: 40, Population: 14,
		Replications: 2, Lifecycle: LifecycleTask, Availability: 0.8}
	seq, err := Run(context.Background(), sc, Options{Mode: ModeInProcess})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := Run(context.Background(), sc, Options{Mode: ModeInProcess, Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Summary.Accuracy == 0 || bat.Summary.Accuracy == 0 {
		t.Fatalf("degenerate runs: seq %+v bat %+v", seq.Summary, bat.Summary)
	}
	if diff := seq.Summary.Accuracy - bat.Summary.Accuracy; diff > 0.3 || diff < -0.3 {
		t.Fatalf("batch accuracy diverges wildly from sequential: seq %.3f bat %.3f",
			seq.Summary.Accuracy, bat.Summary.Accuracy)
	}
}
