// Package twitter models the micro-blog data layer of Section 4: tweet
// records, the "RT @username" retweet-chain extraction that feeds graph
// construction (Algorithm 5), and a synthetic corpus generator standing in
// for the paper's proprietary two-day public-timeline sample (see the
// substitution table in DESIGN.md §4).
package twitter

import "regexp"

// Record is one published tweet.
type Record struct {
	// Author is the user who released the tweet.
	Author string
	// Content is the raw tweet text, possibly containing one or more
	// "RT @username" markers forming a retweet chain.
	Content string
}

// Profile carries the per-user attributes used for parameter estimation.
type Profile struct {
	// Name is the user name.
	Name string
	// AccountAgeDays is the account age since registration, the indicator
	// §4.2 proposes for the payment requirement.
	AccountAgeDays float64
}

// rtPattern matches the paper's marker 'RT @[\w]+' (Algorithm 5, Line 6).
var rtPattern = regexp.MustCompile(`RT @(\w+)`)

// RetweetChain extracts the usernames mentioned by "RT @" markers in
// content, in order of appearance. Following §4.1.1, a tweet by author a
// with chain [u1, u2, ..., uk] encodes the retweet-relationship pairs
// (a,u1), (u1,u2), ..., (u(k-1),uk).
func RetweetChain(content string) []string {
	matches := rtPattern.FindAllStringSubmatch(content, -1)
	if len(matches) == 0 {
		return nil
	}
	users := make([]string, 0, len(matches))
	for _, m := range matches {
		users = append(users, m[1])
	}
	return users
}

// Pair is an ordered retweet-relationship pair: From retweeted To.
type Pair struct {
	From, To string
}

// RetweetPairs applies Algorithm 5's chain rule to one record and returns
// its retweet-relationship pairs. Pairs whose endpoints coincide (a user
// "retweeting" themselves, which malformed tweets can produce) are dropped,
// matching the graph layer's self-loop rejection.
func RetweetPairs(r Record) []Pair {
	chain := RetweetChain(r.Content)
	if len(chain) == 0 {
		return nil
	}
	pairs := make([]Pair, 0, len(chain))
	last := r.Author
	for _, u := range chain {
		if last != u {
			pairs = append(pairs, Pair{From: last, To: u})
		}
		last = u
	}
	return pairs
}
