package dataio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"juryselect/internal/core"
)

func TestReadCSVWithHeader(t *testing.T) {
	in := "id,error_rate,cost\nA,0.1,0.15\nB,0.2,0.2\n"
	jurors, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jurors) != 2 {
		t.Fatalf("got %d jurors", len(jurors))
	}
	if jurors[0].ID != "A" || jurors[0].ErrorRate != 0.1 || jurors[0].Cost != 0.15 {
		t.Fatalf("juror[0] = %+v", jurors[0])
	}
}

func TestReadCSVWithoutHeaderOrCost(t *testing.T) {
	in := "A,0.1\nB,0.2\n"
	jurors, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jurors) != 2 || jurors[1].Cost != 0 {
		t.Fatalf("jurors = %+v", jurors)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"header only":       "id,error_rate\n",
		"one field":         "A\n",
		"bad rate mid":      "A,0.1\nB,xyz\n",
		"bad cost":          "A,0.1,nope\n",
		"rate out of range": "A,1.5\n",
		"negative cost":     "A,0.4,-1\n",
		"NaN rate":          "A,NaN\n",
		"Inf rate":          "A,Inf\n",
		"rate at chance":    "A,0.5\n",
		"worse than chance": "A,0.7\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error for %q", name, in)
		}
	}
}

func TestIngestRejectsWorseThanChance(t *testing.T) {
	// Rates at or above 0.5 carry the dedicated sentinel so callers can
	// branch on the failure mode.
	if _, err := ReadCSV(strings.NewReader("A,0.55\n")); !errors.Is(err, ErrRateNotBetterThanChance) {
		t.Errorf("CSV err = %v, want ErrRateNotBetterThanChance", err)
	}
	if _, err := ReadJSON(strings.NewReader(`[{"id":"a","error_rate":0.5}]`)); !errors.Is(err, ErrRateNotBetterThanChance) {
		t.Errorf("JSON err = %v, want ErrRateNotBetterThanChance", err)
	}
	// Just under the bound is accepted.
	if _, err := ReadCSV(strings.NewReader("A,0.499\n")); err != nil {
		t.Errorf("ε = 0.499 rejected: %v", err)
	}
}

func TestReadCSVEmptyIsErrNoJurors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("id,error_rate\n")); !errors.Is(err, ErrNoJurors) {
		t.Fatalf("err = %v, want ErrNoJurors", err)
	}
}

// csvText renders jurors in the layout ReadCSV reads: a header, then each
// float in its shortest round-trip form.
func csvText(t *testing.T, jurors []core.Juror) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	rows := [][]string{{"id", "error_rate", "cost"}}
	for _, j := range jurors {
		rows = append(rows, []string{j.ID,
			strconv.FormatFloat(j.ErrorRate, 'g', -1, 64),
			strconv.FormatFloat(j.Cost, 'g', -1, 64)})
	}
	if err := cw.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestCSVRoundTrip(t *testing.T) {
	want := []core.Juror{
		{ID: "A", ErrorRate: 0.1, Cost: 0.15},
		{ID: "with,comma", ErrorRate: 0.25, Cost: 0},
		{ID: "tiny", ErrorRate: 1e-10, Cost: 2.5},
	}
	got, err := ReadCSV(csvText(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d jurors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("juror %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	want := []core.Juror{
		{ID: "A", ErrorRate: 0.1, Cost: 0.15},
		{ID: "B", ErrorRate: 0.2},
	}
	raw := make([]JurorJSON, len(want))
	for i, j := range want {
		raw[i] = JurorJSON{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost}
	}
	text, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d jurors", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("juror %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	for name, in := range map[string]string{
		"not json":          "nope",
		"empty array":       "[]",
		"unknown field":     `[{"id":"a","error_rate":0.4,"extra":1}]`,
		"invalid rate":      `[{"id":"a","error_rate":2}]`,
		"negative cost":     `[{"id":"a","error_rate":0.4,"cost":-3}]`,
		"worse than chance": `[{"id":"a","error_rate":0.6}]`,
	} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := ReadJSON(strings.NewReader("[]")); !errors.Is(err, ErrNoJurors) {
		t.Error("empty array should be ErrNoJurors")
	}
}

func TestWriteSelection(t *testing.T) {
	sel := core.Selection{
		Jurors: []core.Juror{{ID: "A", ErrorRate: 0.1, Cost: 0.5}},
		JER:    0.1,
		Cost:   0.5,
	}
	var buf bytes.Buffer
	if err := WriteSelection(&buf, "pay", 1.0, sel); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"model": "pay"`, `"budget": 1`, `"jury_error_rate": 0.1`, `"A"`} {
		if !strings.Contains(out, want) {
			t.Errorf("selection JSON missing %s:\n%s", want, out)
		}
	}
}
