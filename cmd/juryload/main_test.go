package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"juryselect/internal/server"
	"juryselect/internal/simul"
	"juryselect/internal/tasks"
)

func runCLI(t *testing.T, cfg config) (stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run(context.Background(), cfg, &out, &errw); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	return out.String(), errw.String()
}

func TestPresetInProcessDeterministic(t *testing.T) {
	cfg := config{preset: "smoke", mode: simul.ModeInProcess, quiet: true, trace: true}
	a, _ := runCLI(t, cfg)
	b, _ := runCLI(t, cfg)
	if a != b {
		t.Fatal("two runs of the same preset produced different metrics JSON")
	}
	var rep simul.Report
	if err := json.Unmarshal([]byte(a), &rep); err != nil {
		t.Fatalf("output is not a metrics report: %v", err)
	}
	if rep.Schema != simul.ReportSchema || rep.Mode != simul.ModeInProcess {
		t.Errorf("schema/mode = %q/%q", rep.Schema, rep.Mode)
	}
	if len(rep.Replications) != rep.Scenario.Replications {
		t.Errorf("replications: %d, scenario says %d", len(rep.Replications), rep.Scenario.Replications)
	}
}

func TestScenarioFileAndOverrides(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(`{
		"name": "file-scn", "seed": 2, "steps": 20, "population": 10,
		"drift": {"model": "walk"}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "metrics.json")
	_, stderr := runCLI(t, config{
		scenarioPath: path, mode: simul.ModeInProcess, out: outPath,
		steps: 10, replications: 2, strategy: "random", seed: 9,
	})
	if !strings.Contains(stderr, `"file-scn"`) {
		t.Errorf("summary missing scenario name: %s", stderr)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep simul.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	sc := rep.Scenario
	if sc.Steps != 10 || sc.Replications != 2 || sc.Strategy != "random" || sc.Seed != 9 {
		t.Errorf("overrides not applied: %+v", sc)
	}
}

func TestHTTPModeAgainstLiveServer(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	out, stderr := runCLI(t, config{
		preset: "smoke", mode: simul.ModeHTTP, addr: ts.URL,
	})
	var rep simul.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != simul.ModeHTTP {
		t.Errorf("mode = %q", rep.Mode)
	}
	if rep.Replications[0].Latency == nil {
		t.Error("HTTP run missing latency summary")
	}
	if !strings.Contains(stderr, "select latency") {
		t.Errorf("summary missing latency line: %s", stderr)
	}

	// The same scenario in-process must walk the same decision
	// trajectory: accuracy and regret agree exactly (no shedding here).
	local, _ := runCLI(t, config{preset: "smoke", mode: simul.ModeInProcess, quiet: true})
	var lrep simul.Report
	if err := json.Unmarshal([]byte(local), &lrep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.TotalShed == 0 {
		if lrep.Summary.Accuracy != rep.Summary.Accuracy || lrep.Summary.MeanRegret != rep.Summary.MeanRegret {
			t.Errorf("modes disagree: local %.6f/%.8f http %.6f/%.8f",
				lrep.Summary.Accuracy, lrep.Summary.MeanRegret, rep.Summary.Accuracy, rep.Summary.MeanRegret)
		}
	}
}

// TestTaskModeAgainstLiveServer drives the task preset over HTTP —
// create → sequential votes/declines → verdict per question — and
// checks the summary carries the lifecycle accounting, matching the
// in-process trajectory exactly, and labels its latency line as creates.
func TestTaskModeAgainstLiveServer(t *testing.T) {
	store, err := tasks.Open(tasks.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Tasks: store}).Handler())
	defer ts.Close()
	out, stderr := runCLI(t, config{
		preset: "task-smoke", mode: simul.ModeHTTP, addr: ts.URL,
	})
	var rep simul.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scenario.Lifecycle != simul.LifecycleTask {
		t.Fatalf("lifecycle = %q", rep.Scenario.Lifecycle)
	}
	if rep.Summary.MeanVotesSpent <= 0 {
		t.Fatalf("task summary missing vote accounting: %+v", rep.Summary)
	}
	if !strings.Contains(stderr, "votes/task") {
		t.Errorf("summary missing task line: %s", stderr)
	}
	// The latency histogram holds task creates, and the line says so.
	if !strings.Contains(stderr, "create latency (rep 0)") || strings.Contains(stderr, "select latency") {
		t.Errorf("task run's latency line not labelled as creates: %s", stderr)
	}
	local, _ := runCLI(t, config{preset: "task-smoke", mode: simul.ModeInProcess, quiet: true})
	var lrep simul.Report
	if err := json.Unmarshal([]byte(local), &lrep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.TotalShed == 0 {
		if lrep.Summary.Accuracy != rep.Summary.Accuracy ||
			lrep.Summary.MeanVotesSpent != rep.Summary.MeanVotesSpent {
			t.Errorf("modes disagree: local %.6f/%.4f http %.6f/%.4f",
				lrep.Summary.Accuracy, lrep.Summary.MeanVotesSpent,
				rep.Summary.Accuracy, rep.Summary.MeanVotesSpent)
		}
	}
}

// TestLifecycleOverride flips a select preset into task mode.
func TestLifecycleOverride(t *testing.T) {
	sc, err := loadScenario(config{preset: "smoke", lifecycle: "task", targetConf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Lifecycle != simul.LifecycleTask || sc.TargetConfidence != 1 {
		t.Fatalf("overrides not applied: %+v", sc)
	}
	if _, err := loadScenario(config{preset: "smoke", lifecycle: "carrier-pigeon"}); err == nil {
		t.Fatal("bad lifecycle accepted")
	}
	if _, err := loadScenario(config{preset: "task", targetConf: 0.2}); err == nil {
		t.Fatal("bad target confidence accepted")
	}
}

func TestStepsOverrideRederivesShiftStep(t *testing.T) {
	// The shift preset bakes in ShiftStep = Steps/2; shortening the run
	// must move the shift with it rather than silently never firing.
	sc, err := loadScenario(config{preset: "shift", steps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Drift.ShiftStep != 50 {
		t.Errorf("ShiftStep = %d after -steps 100, want 50", sc.Drift.ShiftStep)
	}
	if sc.WindowSteps != 10 {
		t.Errorf("WindowSteps = %d after -steps 100, want 10", sc.WindowSteps)
	}
}

func TestListPresets(t *testing.T) {
	out, _ := runCLI(t, config{list: true})
	for _, want := range []string{"convergence", "drift", "churn", "smoke", "task"} {
		if !strings.Contains(out, want) {
			t.Errorf("preset list missing %q:\n%s", want, out)
		}
	}
}

func TestErrors(t *testing.T) {
	for name, cfg := range map[string]config{
		"no scenario":    {},
		"both sources":   {preset: "smoke", scenarioPath: "x.json"},
		"unknown preset": {preset: "no-such"},
		"http no addr":   {preset: "smoke", mode: simul.ModeHTTP},
		"bad mode":       {preset: "smoke", mode: "carrier-pigeon"},
		"bad override":   {preset: "smoke", strategy: "best-effort"},
	} {
		var out, errw bytes.Buffer
		if err := run(context.Background(), cfg, &out, &errw); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
