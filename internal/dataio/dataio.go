// Package dataio reads candidate-juror datasets in CSV and JSON and writes
// selection reports. It backs cmd/juryselect and gives downstream users a
// stable interchange format for estimated crowds:
//
//	CSV:  header "id,error_rate,cost" (cost optional), one juror per row.
//	JSON: array of {"id": ..., "error_rate": ..., "cost": ...} objects.
//
// File ingest is stricter than the in-memory model: error rates must be
// finite and lie in (0, 0.5) — a stored candidate whose ε is NaN, ±Inf,
// or at least 0.5 fails the read with ErrRateNotBetterThanChance (or the
// model validation error), so a malformed pool file aborts cmd/juryselect
// and juryd -pool at startup instead of poisoning selections.
package dataio

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"juryselect/internal/core"
)

// ErrNoJurors reports an input containing no juror rows.
var ErrNoJurors = errors.New("dataio: no juror rows in input")

// ErrRateNotBetterThanChance reports an ingested error rate at or above
// 0.5. The model tolerates any ε ∈ (0,1), but a stored candidate file
// whose jurors vote no better than a coin flip is almost always a data
// error (a wrong column, an accuracy instead of an error rate), and such
// jurors silently poison pay-model selections. File ingest therefore
// fails fast; programmatic callers that genuinely want worse-than-chance
// jurors can construct them directly.
var ErrRateNotBetterThanChance = errors.New("dataio: error rate not in (0, 0.5): jurors must be better than chance")

// validateIngestRate enforces the file-ingest contract on one juror's
// error rate: finite, and inside [0, 0.5) — intersected with the model's
// own ε > 0 requirement (Definition 4), the accepted range is (0, 0.5).
func validateIngestRate(j core.Juror) error {
	if err := j.Validate(); err != nil {
		return err
	}
	// Validate already rejected NaN and anything outside (0,1); what is
	// left to enforce is the better-than-chance half of the range.
	if j.ErrorRate >= 0.5 {
		return fmt.Errorf("%w: juror %q has ε = %g", ErrRateNotBetterThanChance, j.ID, j.ErrorRate)
	}
	return nil
}

// ReadCSV parses jurors from CSV. The first row is treated as a header when
// its error_rate column does not parse as a number. Rows must have two or
// three fields: id, error_rate, and optionally cost. Parsed jurors are
// validated against the model constraints (ε ∈ (0,1), cost ≥ 0).
func ReadCSV(r io.Reader) ([]core.Juror, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataio: reading CSV: %w", err)
	}
	var jurors []core.Juror
	for i, row := range rows {
		if len(row) < 2 {
			return nil, fmt.Errorf("dataio: row %d: want at least 2 fields (id,error_rate), got %d", i+1, len(row))
		}
		rate, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			if i == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("dataio: row %d: bad error_rate %q", i+1, row[1])
		}
		j := core.Juror{ID: row[0], ErrorRate: rate}
		if len(row) >= 3 && row[2] != "" {
			cost, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				return nil, fmt.Errorf("dataio: row %d: bad cost %q", i+1, row[2])
			}
			j.Cost = cost
		}
		if err := validateIngestRate(j); err != nil {
			return nil, fmt.Errorf("dataio: row %d: %w", i+1, err)
		}
		jurors = append(jurors, j)
	}
	if len(jurors) == 0 {
		return nil, ErrNoJurors
	}
	return jurors, nil
}

// JurorJSON is the JSON wire form of a juror, shared by the CSV/JSON file
// formats, cmd/juryselect -json, and the juryd service payloads.
type JurorJSON struct {
	ID        string  `json:"id"`
	ErrorRate float64 `json:"error_rate"`
	Cost      float64 `json:"cost,omitempty"`
}

// Juror converts the wire form back to the model type (unvalidated).
func (j JurorJSON) Juror() core.Juror {
	return core.Juror{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost}
}

// ReadJSON parses jurors from a JSON array and validates them.
func ReadJSON(r io.Reader) ([]core.Juror, error) {
	var raw []JurorJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("dataio: decoding JSON: %w", err)
	}
	if len(raw) == 0 {
		return nil, ErrNoJurors
	}
	jurors := make([]core.Juror, len(raw))
	for i, rj := range raw {
		jurors[i] = rj.Juror()
		if err := validateIngestRate(jurors[i]); err != nil {
			return nil, fmt.Errorf("dataio: juror %d: %w", i, err)
		}
	}
	return jurors, nil
}

// SelectionJSON is the canonical JSON report form of a selection outcome.
// cmd/juryselect -json emits it and the juryd service nests it under
// "selection" in its /v1/select responses, so CLI and service payloads
// are interchangeable.
type SelectionJSON struct {
	Model       string      `json:"model"`
	Budget      float64     `json:"budget,omitempty"`
	Size        int         `json:"size"`
	JER         float64     `json:"jury_error_rate"`
	Cost        float64     `json:"total_cost"`
	Jurors      []JurorJSON `json:"jurors"`
	Evaluations int         `json:"evaluations,omitempty"`
}

// NewSelectionJSON builds the wire form of a selection outcome.
func NewSelectionJSON(model string, budget float64, sel core.Selection) SelectionJSON {
	rep := SelectionJSON{
		Model:       model,
		Budget:      budget,
		Size:        sel.Size(),
		JER:         sel.JER,
		Cost:        sel.Cost,
		Jurors:      make([]JurorJSON, len(sel.Jurors)),
		Evaluations: sel.Evaluations,
	}
	for i, j := range sel.Jurors {
		rep.Jurors[i] = JurorJSON{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost}
	}
	return rep
}

// WriteSelection writes a selection report as indented JSON.
func WriteSelection(w io.Writer, model string, budget float64, sel core.Selection) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewSelectionJSON(model, budget, sel))
}
