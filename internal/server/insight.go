package server

import (
	"net/http"
	"strconv"

	"juryselect/internal/insight"
)

// insightLimit parses the optional ?limit query (0 = unlimited).
func insightLimit(r *http.Request) (int, error) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, badRequest("limit must be a non-negative integer, got %q", v)
	}
	return n, nil
}

// insightJurorsResponse is the body of GET /v1/insight/jurors.
type insightJurorsResponse struct {
	Jurors []insight.JurorProfile `json:"jurors"`
	// Total is the tracked-juror count before the limit was applied.
	Total       int    `json:"total"`
	Fingerprint string `json:"fingerprint"`
}

// handleInsightJurors serves GET /v1/insight/jurors: every tracked
// juror's profile in ID order. ?limit=N truncates the list.
func (s *Server) handleInsightJurors(w http.ResponseWriter, r *http.Request) {
	limit, err := insightLimit(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	snap := s.insight.Snapshot()
	out := insightJurorsResponse{
		Jurors:      snap.Jurors,
		Total:       len(snap.Jurors),
		Fingerprint: snap.Fingerprint,
	}
	if limit > 0 && limit < len(out.Jurors) {
		out.Jurors = out.Jurors[:limit]
	}
	writeJSON(w, http.StatusOK, out)
}

// insightCalibrationResponse is the body of GET /v1/insight/calibration:
// the JER reliability diagram plus the engine fingerprint the CI smoke
// compares across a restart to prove live ≡ replay.
type insightCalibrationResponse struct {
	TasksDecided int64                     `json:"tasks_decided"`
	TasksExpired int64                     `json:"tasks_expired"`
	Calibration  insight.CalibrationReport `json:"calibration"`
	Fingerprint  string                    `json:"fingerprint"`
}

// handleInsightCalibration serves GET /v1/insight/calibration.
func (s *Server) handleInsightCalibration(w http.ResponseWriter, r *http.Request) {
	snap := s.insight.Snapshot()
	writeJSON(w, http.StatusOK, insightCalibrationResponse{
		TasksDecided: snap.TasksDecided,
		TasksExpired: snap.TasksExpired,
		Calibration:  snap.Calibration,
		Fingerprint:  snap.Fingerprint,
	})
}

// insightAgreementResponse is the body of GET /v1/insight/agreement.
type insightAgreementResponse struct {
	Agreement   insight.AgreementReport `json:"agreement"`
	Fingerprint string                  `json:"fingerprint"`
}

// handleInsightAgreement serves GET /v1/insight/agreement: tracked
// juror pairs by co-vote volume with agreement-above-chance z-scores.
// ?limit=N keeps the top-N pairs.
func (s *Server) handleInsightAgreement(w http.ResponseWriter, r *http.Request) {
	limit, err := insightLimit(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	snap := s.insight.Snapshot()
	out := insightAgreementResponse{
		Agreement:   snap.Agreement,
		Fingerprint: snap.Fingerprint,
	}
	if limit > 0 && limit < len(out.Agreement.Pairs) {
		out.Agreement.Pairs = out.Agreement.Pairs[:limit]
	}
	writeJSON(w, http.StatusOK, out)
}
