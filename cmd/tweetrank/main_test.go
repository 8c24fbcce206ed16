package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSynthetic(t *testing.T) {
	var out bytes.Buffer
	err := run("", true, 300, 1500, 1, "hits", 10, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Top 10 users by hits", "error_rate", "u1"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSyntheticPageRank(t *testing.T) {
	var out bytes.Buffer
	if err := run("", true, 300, 1500, 1, "pagerank", 5, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pagerank") {
		t.Errorf("output missing ranker name:\n%s", out.String())
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tweets.tsv")
	content := "alice\tRT @expert: wow\nbob\tRT @expert: indeed\ncarol\tRT @alice: RT @expert: chain\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(path, false, 0, 0, 0, "hits", 3, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "expert") {
		t.Errorf("output missing top user:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run("", false, 0, 0, 0, "hits", 5, &out); err == nil {
		t.Error("expected error without input or -synthetic")
	}
	if err := run("", true, 100, 500, 1, "quantum", 5, &out); err == nil {
		t.Error("expected error for unknown ranker")
	}
	if err := run("/nonexistent.tsv", false, 0, 0, 0, "hits", 5, &out); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestReadTweetsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, input, wantErr string }{
		{"no tab", "no-tab-here\n", "line 1"},
		{"empty input", "", "no tweets"},
		{"empty author", "\tRT @alice: hi", "line 1:"},
		{"empty author after a tweet", "bob\tRT @alice: yo\n\tRT @alice: hi\n", "line 2:"},
	} {
		_, err := readTweets(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
	tweets, err := readTweets(strings.NewReader("a\thello\n\n\nb\tworld\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tweets) != 2 {
		t.Errorf("got %d tweets, want 2 (blank lines skipped)", len(tweets))
	}
}
