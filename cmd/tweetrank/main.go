// Command tweetrank runs the Section 4 estimation pipeline: it reads (or
// synthesizes) a tweet corpus, builds the retweet graph, ranks users with
// HITS or PageRank, and prints each top user's quality score, estimated
// individual error rate, and payment requirement.
//
// Usage:
//
//	tweetrank -synthetic -users 5000 -tweets 25000 [-ranker hits|pagerank] [-top 20]
//	tweetrank -input tweets.tsv [-ranker pagerank] [-top 50]
//
// The input format is one tweet per line: "author<TAB>content". Account
// ages are unknown for file input, so requirements are reported as 0.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"juryselect/internal/tablefmt"
	"juryselect/microblog"
)

func main() {
	var (
		input     = flag.String("input", "", "TSV file of tweets (author<TAB>content); '-' for stdin")
		synthetic = flag.Bool("synthetic", false, "generate a synthetic corpus instead of reading input")
		users     = flag.Int("users", 5000, "synthetic corpus population")
		tweets    = flag.Int("tweets", 25000, "synthetic corpus size")
		seed      = flag.Int64("seed", 1, "synthetic corpus seed")
		ranker    = flag.String("ranker", "hits", "ranking algorithm: hits or pagerank")
		top       = flag.Int("top", 20, "number of top users to report")
	)
	flag.Parse()
	if err := run(*input, *synthetic, *users, *tweets, *seed, *ranker, *top, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tweetrank: %v\n", err)
		os.Exit(1)
	}
}

func run(input string, synthetic bool, users, tweets int, seed int64, ranker string, top int, out io.Writer) error {
	var corpus []microblog.Tweet
	var profiles []microblog.Profile
	switch {
	case synthetic:
		corpus, profiles = microblog.SyntheticCorpus(users, tweets, seed)
	case input != "":
		var r io.Reader = os.Stdin
		if input != "-" {
			f, err := os.Open(input)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		var err error
		corpus, err = readTweets(r)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -input or -synthetic")
	}

	opts := microblog.Options{TopK: top}
	switch ranker {
	case "hits":
		opts.Ranker = microblog.HITS
	case "pagerank":
		opts.Ranker = microblog.PageRank
	default:
		return fmt.Errorf("unknown ranker %q (want hits or pagerank)", ranker)
	}

	res, err := microblog.Candidates(corpus, profiles, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "corpus: %d tweets; graph: %d users, %d retweet pairs (max in-degree %d)\n",
		len(corpus), res.Graph.Nodes, res.Graph.Edges, res.Graph.MaxInDegree)
	tb := tablefmt.New(fmt.Sprintf("Top %d users by %s", len(res.Candidates), ranker),
		"rank", "user", "score", "error_rate", "requirement")
	for i, c := range res.Candidates {
		tb.AddRow(i+1, c.ID, res.Scores[c.ID], c.ErrorRate, c.Cost)
	}
	return tb.Render(out)
}

func readTweets(r io.Reader) ([]microblog.Tweet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var out []microblog.Tweet
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		author, content, ok := strings.Cut(text, "\t")
		if !ok || author == "" {
			return nil, fmt.Errorf("line %d: want 'author<TAB>content' with a non-empty author", line)
		}
		out = append(out, microblog.Tweet{Author: author, Content: content})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tweets in input")
	}
	return out, nil
}
