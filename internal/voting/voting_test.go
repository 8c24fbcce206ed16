package voting

import (
	"errors"
	"math"
	"testing"

	"juryselect/internal/jer"
	"juryselect/internal/randx"
)

func TestMajorityVoteBasic(t *testing.T) {
	cases := []struct {
		votes []bool
		want  Decision
	}{
		{[]bool{true}, Yes},
		{[]bool{false}, No},
		{[]bool{true, true, false}, Yes},
		{[]bool{true, false, false}, No},
		{[]bool{true, false}, Tie},
		{[]bool{true, true, false, false}, Tie},
		{[]bool{true, true, true, false, false}, Yes},
	}
	for _, tc := range cases {
		got, err := MajorityVote(tc.votes)
		if err != nil {
			t.Fatalf("%v: %v", tc.votes, err)
		}
		if got != tc.want {
			t.Errorf("MajorityVote(%v) = %v, want %v", tc.votes, got, tc.want)
		}
	}
}

func TestMajorityVoteEmpty(t *testing.T) {
	if _, err := MajorityVote(nil); !errors.Is(err, ErrEmptyVoting) {
		t.Fatalf("err = %v, want ErrEmptyVoting", err)
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{No: "no", Yes: "yes", Tie: "tie"} {
		if d.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(d), d.String(), want)
		}
	}
	if Decision(9).String() != "Decision(9)" {
		t.Errorf("unexpected: %q", Decision(9).String())
	}
}

func TestVoteRespectsTruth(t *testing.T) {
	// With near-zero error rates every vote must match the truth.
	sim := NewSimulator(randx.New(1))
	rates := []float64{1e-9, 1e-9, 1e-9}
	votes, err := sim.Vote(Task{ID: "t", Truth: Yes}, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range votes {
		if !v {
			t.Errorf("juror %d voted against truth despite ε≈0", i)
		}
	}
	votes, err = sim.Vote(Task{ID: "t", Truth: No}, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range votes {
		if v {
			t.Errorf("juror %d voted against truth despite ε≈0", i)
		}
	}
}

func TestVoteValidation(t *testing.T) {
	sim := NewSimulator(randx.New(2))
	if _, err := sim.Vote(Task{Truth: Yes}, []float64{2}); err == nil {
		t.Error("expected error for invalid rate")
	}
	if _, err := sim.Vote(Task{Truth: Tie}, []float64{0.5}); err == nil {
		t.Error("expected error for non-binary truth")
	}
}

func TestVoteFrequencyMatchesErrorRate(t *testing.T) {
	sim := NewSimulator(randx.New(3))
	rates := []float64{0.25}
	task := Task{ID: "x", Truth: Yes}
	const trials = 100000
	wrong := 0
	for i := 0; i < trials; i++ {
		votes, err := sim.Vote(task, rates)
		if err != nil {
			t.Fatal(err)
		}
		if !votes[0] {
			wrong++
		}
	}
	got := float64(wrong) / trials
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("empirical individual error rate %g, want ≈ 0.25", got)
	}
}

func TestRunEmpiricalErrorRateMatchesJER(t *testing.T) {
	// The central consistency check of the whole model: simulated majority
	// voting failure frequency must converge to the analytic JER.
	sim := NewSimulator(randx.New(4))
	rates := []float64{0.1, 0.2, 0.2, 0.3, 0.3}
	want, err := jer.Compute(rates, jer.DPAlgo)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 300000
	out, err := sim.Run(rates, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tasks != tasks || out.Correct+out.Wrong+out.Ties != tasks {
		t.Fatalf("outcome counts inconsistent: %+v", out)
	}
	if out.Ties != 0 {
		t.Fatalf("odd jury produced %d ties", out.Ties)
	}
	got := out.ErrorRate()
	sigma := math.Sqrt(want * (1 - want) / tasks)
	if math.Abs(got-want) > 4*sigma+1e-4 {
		t.Errorf("empirical %g vs analytic %g (σ=%g)", got, want, sigma)
	}
}

func TestRunEvenJuryTies(t *testing.T) {
	sim := NewSimulator(randx.New(5))
	out, err := sim.Run([]float64{0.5, 0.5}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Two fair coins tie with probability 1/2.
	frac := float64(out.Ties) / float64(out.Tasks)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("tie fraction %g, want ≈ 0.5", frac)
	}
}

func TestRunValidation(t *testing.T) {
	sim := NewSimulator(randx.New(6))
	if _, err := sim.Run(nil, 10); !errors.Is(err, ErrEmptyVoting) {
		t.Error("expected ErrEmptyVoting")
	}
	if _, err := sim.Run([]float64{0.5}, 0); err == nil {
		t.Error("expected error for zero tasks")
	}
	if _, err := sim.Run([]float64{1.5}, 10); err == nil {
		t.Error("expected error for invalid rates")
	}
}

func TestOutcomeErrorRateEmpty(t *testing.T) {
	if got := (Outcome{}).ErrorRate(); got != 0 {
		t.Errorf("ErrorRate of empty outcome = %g, want 0", got)
	}
}
