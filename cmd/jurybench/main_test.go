package main

import (
	"bytes"
	"strings"
	"testing"

	"juryselect/internal/experiments"
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

// TestRunBenchNoExperiment: an -exp list that names no experiment is a
// usage error, not a silent run of nothing.
func TestRunBenchNoExperiment(t *testing.T) {
	for _, exp := range []string{"", " , "} {
		var out, errOut bytes.Buffer
		if code := runBench(benchConfig{exp: exp, quick: true, seed: 1}, &out, &errOut); code != 2 {
			t.Errorf("-exp %q: exit code %d, want 2", exp, code)
		}
		if !strings.Contains(errOut.String(), "names no experiment") || out.Len() != 0 {
			t.Errorf("-exp %q: stdout %q, stderr %q", exp, out.String(), errOut.String())
		}
	}
}
