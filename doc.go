// Package juryselect is the root of a Go reproduction of "Whom to Ask?
// Jury Selection for Decision Making Tasks on Micro-blog Services" (Cao,
// She, Tong, Chen; PVLDB 5(11), 2012).
//
// Import the public API packages:
//
//	juryselect/jury      — JER computation, AltrALG/PayALG/exact selection,
//	                       the concurrent batch engine (EvaluateAll,
//	                       Engine), majority voting and simulation
//	juryselect/microblog — tweets → retweet graph → HITS/PageRank →
//	                       error-rate/requirement estimation pipeline
//
// cmd/jurybench regenerates every table and figure of the paper at full
// scale, and BenchmarkExperiment in bench_test.go times each at quick
// scale (go test -bench=Experiment); cmd/juryselect selects juries from CSV/JSON files,
// cmd/juryd serves selection over HTTP/JSON with live, versioned juror
// pools (internal/server), and cmd/juryload replays scenario-driven
// crowd traffic — drifting error rates, churn, partial availability —
// against either the in-process stack or a live juryd, recording
// decision accuracy, regret and calibration over time (internal/simul).
// See README.md for a quick start, DESIGN.md for the system inventory,
// the engine's concurrency model, the service layer (§10) and the
// closed-loop simulator (§11), and EXPERIMENTS.md for paper-vs-measured
// results.
package juryselect
