package twitter

import (
	"testing"

	"juryselect/internal/randx"
)

func TestRetweetChainSingle(t *testing.T) {
	// Case 1 of §4.1.1: exactly one "RT @username" substring.
	got := RetweetChain("so cool RT @alice: is Turkey in Europe?")
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("chain = %v, want [alice]", got)
	}
}

func TestRetweetChainMultiple(t *testing.T) {
	// Case 2: a chain "RT @b: RT @c:" means the author retweeted b who
	// retweeted c.
	got := RetweetChain("RT @bob: RT @carol: original text")
	if len(got) != 2 || got[0] != "bob" || got[1] != "carol" {
		t.Fatalf("chain = %v, want [bob carol]", got)
	}
}

func TestRetweetChainNone(t *testing.T) {
	for _, content := range []string{
		"no markers here",
		"",
		"rt @lowercase is not a marker",
		"RT without at-sign",
		"@mention without RT",
	} {
		if got := RetweetChain(content); got != nil {
			t.Errorf("RetweetChain(%q) = %v, want nil", content, got)
		}
	}
}

func TestRetweetChainMalformed(t *testing.T) {
	// Failure injection: half-markers and unicode punctuation must not
	// panic and must extract only well-formed usernames.
	cases := map[string][]string{
		"RT @":                      nil,
		"RT @ alice":                nil,
		"RT @@double":               nil, // '@' after the marker is not a \w char
		"xxRT @tail":                {"tail"},
		"RT @a RT @b RT @":          {"a", "b"},
		"RT @under_score99 then":    {"under_score99"},
		"RT @名前 unicode user":       nil,       // \w matches ASCII word chars only
		"RT @mixed名 unicode suffix": {"mixed"}, // match stops at the first non-\w rune
	}
	for content, want := range cases {
		got := RetweetChain(content)
		if len(got) != len(want) {
			t.Errorf("RetweetChain(%q) = %v, want %v", content, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("RetweetChain(%q) = %v, want %v", content, got, want)
			}
		}
	}
}

func TestRetweetPairsChainRule(t *testing.T) {
	r := Record{Author: "amy", Content: "RT @bob: RT @carol: text"}
	pairs := RetweetPairs(r)
	want := []Pair{{"amy", "bob"}, {"bob", "carol"}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", pairs, want)
		}
	}
}

func TestRetweetPairsDropsSelfPairs(t *testing.T) {
	r := Record{Author: "amy", Content: "RT @amy: echo chamber"}
	if pairs := RetweetPairs(r); len(pairs) != 0 {
		t.Fatalf("pairs = %v, want none", pairs)
	}
	r = Record{Author: "amy", Content: "RT @bob: RT @bob: duplicated hop"}
	pairs := RetweetPairs(r)
	if len(pairs) != 1 || pairs[0] != (Pair{"amy", "bob"}) {
		t.Fatalf("pairs = %v, want [{amy bob}]", pairs)
	}
}

func TestRetweetPairsPlainTweet(t *testing.T) {
	if pairs := RetweetPairs(Record{Author: "a", Content: "plain"}); pairs != nil {
		t.Fatalf("pairs = %v, want nil", pairs)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GeneratorConfig{Users: 50, Tweets: 200}
	a := Generate(cfg, randx.New(42))
	b := Generate(cfg, randx.New(42))
	if len(a.Tweets) != len(b.Tweets) {
		t.Fatal("tweet counts differ")
	}
	for i := range a.Tweets {
		if a.Tweets[i] != b.Tweets[i] {
			t.Fatalf("tweet %d differs: %+v vs %+v", i, a.Tweets[i], b.Tweets[i])
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := GeneratorConfig{Users: 100, Tweets: 1000}
	c := Generate(cfg, randx.New(7))
	if len(c.Tweets) != 1000 {
		t.Fatalf("tweets = %d", len(c.Tweets))
	}
	if len(c.Profiles) != 100 {
		t.Fatalf("profiles = %d", len(c.Profiles))
	}
	withRT := 0
	for _, tw := range c.Tweets {
		if tw.Author == "" || tw.Content == "" {
			t.Fatal("empty author or content")
		}
		if len(RetweetChain(tw.Content)) > 0 {
			withRT++
		}
	}
	frac := float64(withRT) / float64(len(c.Tweets))
	if frac < 0.4 || frac > 0.8 {
		t.Errorf("retweet fraction %g outside sane band around default 0.6", frac)
	}
	for _, p := range c.Profiles {
		if p.AccountAgeDays < 1 || p.AccountAgeDays > 3650 {
			t.Errorf("account age %g out of range", p.AccountAgeDays)
		}
	}
}

func TestGeneratePopularityIsSkewed(t *testing.T) {
	// Head users (low index) must collect far more retweet mentions than
	// tail users — the power-law shape the substitution relies on.
	c := Generate(GeneratorConfig{Users: 200, Tweets: 4000}, randx.New(9))
	mentions := map[string]int{}
	for _, tw := range c.Tweets {
		for _, u := range RetweetChain(tw.Content) {
			mentions[u]++
		}
	}
	head := mentions["u1"] + mentions["u2"] + mentions["u3"]
	tail := mentions["u198"] + mentions["u199"] + mentions["u200"]
	if head <= 5*tail {
		t.Errorf("popularity not skewed: head=%d tail=%d", head, tail)
	}
}

func TestGenerateDefaults(t *testing.T) {
	cfg := GeneratorConfig{}.withDefaults()
	if cfg.Users != 10000 || cfg.Tweets != 50000 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.PopularityExponent != 1.1 || cfg.RetweetFraction != 0.6 {
		t.Fatalf("defaults: %+v", cfg)
	}
}
