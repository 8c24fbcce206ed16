package tablefmt

import (
	"strings"
	"testing"
)

// render returns what Render writes for tb.
func render(t *testing.T, tb *Table) string {
	t.Helper()
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTableRendering(t *testing.T) {
	tb := New("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 0.07036)
	out := render(t, tb)
	if !strings.Contains(out, "== Demo ==") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "name") || !strings.Contains(out, "value") {
		t.Errorf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.0704") {
		t.Errorf("missing formatted float:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		0.2:      "0.2000",
		1e-10:    "1.000e-10",
		-3e-7:    "-3.000e-07",
		12345678: "1.235e+07",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestTableNoTitleNoHeaders(t *testing.T) {
	tb := New("")
	tb.AddRow("only", "cells", 42)
	out := render(t, tb)
	if strings.Contains(out, "==") {
		t.Errorf("unexpected title in:\n%s", out)
	}
	if !strings.Contains(out, "only") || !strings.Contains(out, "42") {
		t.Errorf("row missing:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := New("", "col", "x")
	tb.AddRow("longervalue", 1)
	tb.AddRow("s", 2)
	lines := strings.Split(strings.TrimRight(render(t, tb), "\n"), "\n")
	// Data rows: the second column must start at the same offset.
	r1, r2 := lines[len(lines)-2], lines[len(lines)-1]
	if strings.Index(r1, "1") != strings.Index(r2, "2") {
		t.Errorf("columns misaligned:\n%s\n%s", r1, r2)
	}
}
