package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"juryselect/internal/experiments"
	"juryselect/internal/jer"
)

func TestRunBenchTable2(t *testing.T) {
	var out, errOut bytes.Buffer
	code := runBench(benchConfig{exp: "table2", quick: true, seed: 1}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"table2", "0.1740", "0.0704"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunBenchList(t *testing.T) {
	var out, errOut bytes.Buffer
	code := runBench(benchConfig{list: true}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, id := range experiments.List() {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunBenchUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	code := runBench(benchConfig{exp: "figZZ", quick: true, seed: 1}, &out, &errOut)
	if code == 0 {
		t.Fatal("expected non-zero exit for unknown experiment")
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

func TestRunBenchMultipleExperiments(t *testing.T) {
	var out, errOut bytes.Buffer
	code := runBench(benchConfig{exp: "table2, fig3e", quick: true, seed: 1}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "fig3e") {
		t.Errorf("missing fig3e section:\n%s", out.String())
	}
}

func TestWriteBenchSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var progress bytes.Buffer
	benches := []namedBench{{"tiny/jer_dp_n11", jerBench(jer.DPAlgo, 11)}}
	if err := writeBenchSnapshot(path, benches, &progress); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Schema != "juryselect-bench/v1" || snap.GOMAXPROCS < 1 {
		t.Fatalf("bad snapshot header: %+v", snap)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1", len(snap.Benchmarks))
	}
	e := snap.Benchmarks[0]
	if e.Name != "tiny/jer_dp_n11" || e.NsPerOp <= 0 || e.Iterations <= 0 {
		t.Fatalf("bad entry: %+v", e)
	}
	// The pooled DP kernel must stay allocation-free in steady state; the
	// committed BENCH_PR2.json trajectory relies on this holding. The race
	// detector drops pooled kernels on purpose, so only a normal build
	// can check it.
	if e.AllocsPerOp != 0 && !raceEnabled {
		t.Fatalf("DP path allocates %d allocs/op, want 0", e.AllocsPerOp)
	}
	if !strings.Contains(progress.String(), "tiny/jer_dp_n11") {
		t.Fatalf("no progress line: %q", progress.String())
	}
}

func TestBenchCheck(t *testing.T) {
	// Swap in a cheap guard so the test exercises the check mechanism,
	// not the real (expensive) server benchmarks.
	saved := regressionGuards
	regressionGuards = []benchGuard{{name: "JER_DP_n101", axis: "ns_per_op"}}
	defer func() { regressionGuards = saved }()

	path := filepath.Join(t.TempDir(), "bench.json")
	benches := []namedBench{{"JER_DP_n101", jerBench(jer.DPAlgo, 101)}}
	if err := writeBenchSnapshot(path, benches, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Against its own fresh snapshot the guard must pass comfortably.
	var out bytes.Buffer
	if err := checkBenchJSON(path, 2.0, &out); err != nil {
		t.Fatalf("self-check failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "JER_DP_n101") || !strings.Contains(out.String(), "ok") {
		t.Fatalf("check output missing guard line: %q", out.String())
	}

	// Shrink the committed baseline to force a regression verdict.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Benchmarks[0].NsPerOp /= 1000
	shrunk, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, shrunk, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = checkBenchJSON(path, 0.2, &out)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("want regression failure, got %v\n%s", err, out.String())
	}

	// A snapshot missing a guarded entry is a configuration error.
	snap.Benchmarks[0].Name = "renamed"
	renamed, _ := json.Marshal(snap)
	if err := os.WriteFile(path, renamed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkBenchJSON(path, 0.2, io.Discard); err == nil {
		t.Fatal("want error for snapshot missing the guarded entry")
	}
}

func TestRunBenchJSONFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir")
	var out, errOut bytes.Buffer
	// An unwritable path must surface as a non-zero exit, not a panic.
	code := runBench(benchConfig{benchJSON: filepath.Join(path, "x", "y.json")}, &out, &errOut)
	if code == 0 {
		t.Fatal("expected failure for unwritable snapshot path")
	}
}
