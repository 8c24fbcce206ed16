package server

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"juryselect/internal/tasks"
)

// Task responses are rendered by hand: create, GET, vote, vote batch and
// list all answer through appendTaskView, which writes a tasks.View in
// one pass with no allocation. Its bytes are exactly those
// json.NewEncoder(w).Encode writes for the same response: keys in field
// order, the same omitempty rules, HTML-escaped strings, encoding/json's
// float format and time.Time's RFC 3339 rendering. Where encoding/json
// fails — a NaN or infinite number, a time MarshalJSON refuses — so does
// appendTaskView, and the writers below answer through writeJSON, which
// fails alike. FuzzAppendTaskView checks the bytes against
// encoding/json.

// errUnsupported reports a value appendTaskView cannot render; the
// writers then let writeJSON render (and fail on) the response.
var errUnsupported = errors.New("server: value encoding/json refuses")

// writeTask answers with a TaskResponse for v.
func writeTask(w http.ResponseWriter, status int, v *tasks.View) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	b, err := appendTaskResponse(buf.AvailableBuffer(), v)
	if err != nil {
		writeJSON(w, status, TaskResponse{Task: *v})
		return
	}
	buf.Write(b) // keeps grown storage for the pool
	writeRawJSON(w, status, buf.Bytes())
}

// writeTaskList answers with a TaskListResponse for views.
func writeTaskList(w http.ResponseWriter, views []tasks.View) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	b, err := appendTaskList(buf.AvailableBuffer(), views)
	if err != nil {
		writeJSON(w, http.StatusOK, TaskListResponse{Tasks: views})
		return
	}
	buf.Write(b)
	writeRawJSON(w, http.StatusOK, buf.Bytes())
}

// writeTaskBatch answers with a TaskVoteBatchResponse.
func writeTaskBatch(w http.ResponseWriter, results []tasks.BallotResult, v *tasks.View) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	b, err := appendTaskBatch(buf.AvailableBuffer(), results, v)
	if err != nil {
		writeJSON(w, http.StatusOK, TaskVoteBatchResponse{Results: results, Task: *v})
		return
	}
	buf.Write(b)
	writeRawJSON(w, http.StatusOK, buf.Bytes())
}

// appendTaskResponse appends a TaskResponse's body, newline included.
func appendTaskResponse(b []byte, v *tasks.View) ([]byte, error) {
	b, err := appendTaskView(append(b, `{"task":`...), v)
	return append(b, "}\n"...), err
}

// appendTaskList appends a TaskListResponse's body, newline included.
func appendTaskList(b []byte, views []tasks.View) ([]byte, error) {
	b = append(b, `{"tasks":`...)
	if views == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range views {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendTaskView(b, &views[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendTaskBatch appends a TaskVoteBatchResponse's body, newline
// included.
func appendTaskBatch(b []byte, results []tasks.BallotResult, v *tasks.View) ([]byte, error) {
	b = append(b, `{"results":`...)
	if results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, r := range results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, `{"juror_id":`...), r.JurorID)
			if r.Applied {
				b = append(b, `,"applied":true`...)
			}
			if r.Skipped {
				b = append(b, `,"skipped":true`...)
			}
			if r.Error != "" {
				b = appendJSONString(append(b, `,"error":`...), r.Error)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b, err := appendTaskView(append(b, `,"task":`...), v)
	return append(b, "}\n"...), err
}

// appendTaskView appends v as encoding/json renders a tasks.View, or
// fails where it fails.
func appendTaskView(b []byte, v *tasks.View) ([]byte, error) {
	e := jsonAppender{b: b}
	e.key(`{"id":`).str(v.ID)
	e.key(`,"status":`).str(string(v.Status))
	e.key(`,"pool":`).str(v.Pool)
	e.key(`,"pool_version":`).uint(v.PoolVersion)
	if v.Question != "" {
		e.key(`,"question":`).str(v.Question)
	}
	e.key(`,"strategy":`).str(v.Strategy)
	if v.Budget != 0 { // omitempty drops ±0
		e.key(`,"budget":`).float(v.Budget)
	}
	e.key(`,"target_confidence":`).float(v.TargetConfidence)
	e.key(`,"predicted_jer":`).float(v.PredictedJER)
	e.key(`,"created_at":`).time(v.CreatedAt)
	e.key(`,"expires_at":`).time(v.ExpiresAt)
	e.key(`,"jurors":`)
	if v.Jurors == nil {
		e.key("null")
	} else {
		e.key("[")
		for i := range v.Jurors {
			j := &v.Jurors[i]
			if i > 0 {
				e.key(",")
			}
			e.key(`{"id":`).str(j.ID)
			e.key(`,"error_rate":`).float(j.ErrorRate)
			if j.Cost != 0 {
				e.key(`,"cost":`).float(j.Cost)
			}
			e.key(`,"state":`).str(string(j.State))
			if j.Vote != nil {
				e.key(`,"vote":`).bool(*j.Vote)
			}
			e.key(`,"invited_at":`).time(j.InvitedAt)
			e.key("}")
		}
		e.key("]")
	}
	e.key(`,"invites":`).int(v.Invites)
	e.key(`,"votes_spent":`).int(v.VotesSpent)
	if v.Declines != 0 {
		e.key(`,"declines":`).int(v.Declines)
	}
	e.key(`,"p_yes":`).float(v.PYes)
	if vd := v.Verdict; vd != nil {
		e.key(`,"verdict":{"answer":`).bool(vd.Answer)
		e.key(`,"confidence":`).float(vd.Confidence)
		if vd.EarlyStopped {
			e.key(`,"early_stopped":true`)
		}
		e.key(`,"decided_at":`).time(vd.DecidedAt)
		e.key("}")
	}
	e.key("}")
	return e.b, e.err
}

// jsonAppender appends JSON tokens to b. err is sticky: the first value
// encoding/json would refuse sets it.
type jsonAppender struct {
	b   []byte
	err error
}

// key appends literal JSON text: punctuation and quoted keys.
func (e *jsonAppender) key(s string) *jsonAppender {
	e.b = append(e.b, s...)
	return e
}

func (e *jsonAppender) str(s string) { e.b = appendJSONString(e.b, s) }

func (e *jsonAppender) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

func (e *jsonAppender) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

func (e *jsonAppender) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

// float appends f as encoding/json does: like ES6 number-to-string,
// 'f' format unless |f| < 1e-6 or |f| ≥ 1e21, and exponents unpadded.
func (e *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.err = errUnsupported
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n0 := len(e.b)
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n-n0 >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-07 → e-7
		e.b = e.b[:n-1]
	}
}

// time appends t as time.Time.MarshalJSON does: quoted RFC 3339 with
// nanoseconds, refusing a year outside [0, 9999] or a zone offset of 24
// hours or more.
func (e *jsonAppender) time(t time.Time) {
	e.b = append(e.b, '"')
	n0 := len(e.b)
	e.b = t.AppendFormat(e.b, time.RFC3339Nano)
	s := e.b[n0:]
	switch {
	case s[len("9999")] != '-':
		e.err = errUnsupported
	case s[len(s)-1] != 'Z':
		sign, hour := s[len(s)-len("Z07:00")], s[len(s)-len("07:00"):]
		if '0' <= sign && sign <= '9' || 10*(hour[0]-'0')+(hour[1]-'0') >= 24 {
			e.err = errUnsupported
		}
	}
	e.b = append(e.b, '"')
}

// appendJSONString appends s quoted as encoding/json quotes strings with
// HTML escaping on: <, > and & become \u003c, \u003e and \u0026,
// U+2028 and U+2029 are escaped, and each invalid UTF-8 byte becomes
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
