package twitter

import (
	"fmt"

	"juryselect/internal/randx"
)

// GeneratorConfig parameterizes the synthetic corpus. The defaults (applied
// by Generate for zero fields) produce a corpus whose retweet graph shows
// the power-law in-degree profile the paper observes on real Twitter data
// ("Due to the Power law distribution characteristics of social network
// users", §4.1.3): a small head of highly retweeted accounts and a long
// sparse tail.
type GeneratorConfig struct {
	// Users is the population size (default 10000). User names are
	// "u<number>"; lower numbers are more popular, mimicking celebrity and
	// mainstream-media accounts.
	Users int
	// Tweets is the number of records to generate (default 5·Users).
	Tweets int
	// PopularityExponent is the Zipf exponent of retweet popularity
	// (default 1.1).
	PopularityExponent float64
	// RetweetFraction is the fraction of tweets that contain at least one
	// RT marker (default 0.6; the rest are plain tweets that add nodes but
	// no edges, like the sparse majority in the paper's 689,050-user
	// sample).
	RetweetFraction float64
	// ChainContinue is the probability that a retweet chain extends one
	// hop further (chain length ≈ 1 + geometric; default 0.25, keeping
	// chains short as on real Twitter).
	ChainContinue float64
	// MaxAccountAgeDays bounds the uniform account-age attribute (default
	// 3650 days ≈ 10 years of Twitter history as of the paper's writing).
	MaxAccountAgeDays float64
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.Users <= 0 {
		c.Users = 10000
	}
	if c.Tweets <= 0 {
		c.Tweets = 5 * c.Users
	}
	if c.PopularityExponent <= 0 {
		c.PopularityExponent = 1.1
	}
	if c.RetweetFraction <= 0 || c.RetweetFraction > 1 {
		c.RetweetFraction = 0.6
	}
	if c.ChainContinue <= 0 || c.ChainContinue >= 1 {
		c.ChainContinue = 0.25
	}
	if c.MaxAccountAgeDays <= 0 {
		c.MaxAccountAgeDays = 3650
	}
	return c
}

// Corpus is a generated tweet dataset.
type Corpus struct {
	Tweets   []Record
	Profiles []Profile
}

// fillers provides innocuous tweet text so generated records look like the
// real markup Algorithm 5 parses (text before, between and after markers).
var fillers = []string{
	"is Doner Kebab available in Hong Kong?",
	"will iPhone5 come before August?",
	"earthquake reported near the coast, stay safe",
	"is Turkey in Europe or in Asia?",
	"breaking: markets moving fast today",
	"anyone knows a good dress for the banquet?",
	"this looks like political astroturf to me",
	"so true",
	"interesting thread",
	"cannot believe this",
}

// Generate produces a deterministic synthetic corpus from the config and
// seed source. Popular users (low index) are preferentially chosen as
// retweet targets via a Zipf draw, while tweet authors are drawn uniformly;
// the resulting retweet graph concentrates in-degree on the head users
// exactly as influence concentrates on mainstream accounts in the paper's
// dataset.
func Generate(cfg GeneratorConfig, src *randx.Source) *Corpus {
	cfg = cfg.withDefaults()
	names := make([]string, cfg.Users)
	profiles := make([]Profile, cfg.Users)
	for i := range names {
		names[i] = fmt.Sprintf("u%d", i+1)
		profiles[i] = Profile{
			Name:           names[i],
			AccountAgeDays: 1 + src.Float64()*(cfg.MaxAccountAgeDays-1),
		}
	}
	popularity := randx.NewZipf(src.Split("popularity"), cfg.Users, cfg.PopularityExponent)
	textSrc := src.Split("text")
	tweets := make([]Record, 0, cfg.Tweets)
	for t := 0; t < cfg.Tweets; t++ {
		author := names[src.Intn(cfg.Users)]
		content := fillers[textSrc.Intn(len(fillers))]
		if src.Bernoulli(cfg.RetweetFraction) {
			// Build a retweet chain: each hop lands on a Zipf-popular
			// user distinct from its predecessor.
			prev := author
			for {
				target := names[popularity.Draw()-1]
				if target == prev {
					// Redraw once; if still colliding, stop the chain.
					target = names[popularity.Draw()-1]
					if target == prev {
						break
					}
				}
				content = fmt.Sprintf("RT @%s: %s", target, content)
				prev = target
				if !src.Bernoulli(cfg.ChainContinue) {
					break
				}
			}
		}
		tweets = append(tweets, Record{Author: author, Content: content})
	}
	return &Corpus{Tweets: tweets, Profiles: profiles}
}
