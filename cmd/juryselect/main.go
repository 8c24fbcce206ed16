// Command juryselect selects a jury from a CSV or JSON file of candidate
// jurors.
//
// Usage:
//
//	juryselect -input jurors.csv [-format csv|json] [-model altr|pay]
//	           [-budget B] [-exact] [-json]
//
// CSV input has a header and rows "id,error_rate[,cost]"; JSON input is an
// array of {"id","error_rate","cost"} objects. Pass "-" to read standard
// input. Under -model altr the exact AltrALG optimum is returned; under
// -model pay the PayALG heuristic is used (or exact enumeration with
// -exact, for at most 26 candidates, sharded across every core with the
// same result on any core count). -json switches the report to the
// canonical Selection JSON — the same shape cmd/juryd returns under
// "selection" in /v1/select responses, so CLI and service payloads are
// interchangeable.
//
// Example:
//
//	$ cat jurors.csv
//	id,error_rate,cost
//	A,0.1,0.15
//	B,0.2,0.20
//	C,0.2,0.25
//	$ juryselect -input jurors.csv -model pay -budget 0.5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"juryselect/internal/dataio"
	"juryselect/jury"
)

func main() {
	var (
		input   = flag.String("input", "", "file of candidates; '-' for stdin")
		format  = flag.String("format", "csv", "input format: csv or json")
		model   = flag.String("model", "altr", "crowdsourcing model: altr or pay")
		budget  = flag.Float64("budget", 0, "budget for the pay model")
		exact   = flag.Bool("exact", false, "use exact enumeration instead of the greedy (pay model, ≤26 candidates)")
		jsonOut = flag.Bool("json", false, "emit the selection report as JSON")
	)
	flag.Parse()
	if err := run(runConfig{
		input: *input, format: *format, model: *model,
		budget: *budget, exact: *exact, jsonOut: *jsonOut,
	}, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "juryselect: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	input, format, model string
	budget               float64
	exact                bool
	jsonOut              bool
}

func run(cfg runConfig, stdin io.Reader, out io.Writer) error {
	if cfg.input == "" {
		return fmt.Errorf("missing -input (use '-' for stdin)")
	}
	r := stdin
	if cfg.input != "-" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	var cands []jury.Juror
	var err error
	switch cfg.format {
	case "csv":
		cands, err = dataio.ReadCSV(r)
	case "json":
		cands, err = dataio.ReadJSON(r)
	default:
		return fmt.Errorf("unknown format %q (want csv or json)", cfg.format)
	}
	if err != nil {
		return err
	}

	var sel jury.Selection
	switch cfg.model {
	case "altr":
		sel, err = jury.SelectAltruistic(cands)
	case "pay":
		if cfg.exact {
			sel, err = jury.SelectExact(cands, cfg.budget)
		} else {
			sel, err = jury.SelectBudgeted(cands, cfg.budget)
		}
	default:
		return fmt.Errorf("unknown model %q (want altr or pay)", cfg.model)
	}
	if err != nil {
		return err
	}

	if cfg.jsonOut {
		return dataio.WriteSelection(out, cfg.model, cfg.budget, sel)
	}
	fmt.Fprintf(out, "model: %s\n", cfg.model)
	if cfg.model == "pay" {
		fmt.Fprintf(out, "budget: %g\n", cfg.budget)
	}
	fmt.Fprintf(out, "jury size: %d\n", sel.Size())
	fmt.Fprintf(out, "jury error rate: %.6g\n", sel.JER)
	fmt.Fprintf(out, "total cost: %.6g\n", sel.Cost)
	fmt.Fprintf(out, "jurors:\n")
	for _, j := range sel.Jurors {
		fmt.Fprintf(out, "  %s\terror_rate=%.4g\tcost=%.4g\n", j.ID, j.ErrorRate, j.Cost)
	}
	return nil
}
