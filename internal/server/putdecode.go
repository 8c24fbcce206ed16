package server

import (
	"strconv"
	"unicode/utf8"

	"juryselect/jury"
)

// decodeJurors decodes a canonical PUT /v1/pools/{name}/jurors body in
// one pass, straight into jurors: {"jurors":[...]} whose juror objects
// carry only the keys id, error_rate and cost, each at most once and in
// any order, with JSON whitespace between tokens and after the closing
// brace. An id must be a string without escapes or control bytes, in
// valid UTF-8; error_rate and cost must be JSON numbers, parsed by
// strconv.ParseFloat as encoding/json parses them; a missing key leaves
// the zero value. It reports false for every other body — escapes,
// other spellings of a key, repeated keys, null, further keys, malformed
// or trailing data — and the caller decodes those with decodeJSON, so
// the bodies PUT accepts, the jurors they decode to and every error text
// stay encoding/json's. IDs are copied: body is a pooled buffer the next
// request reuses.
func decodeJurors(body []byte) ([]jury.Juror, bool) {
	d := jurorScanner{b: body}
	if !d.lit('{') || !d.key("jurors") || !d.lit('[') {
		return nil, false
	}
	var jurors []jury.Juror
	if !d.lit(']') {
		for {
			j, ok := d.juror()
			if !ok {
				return nil, false
			}
			jurors = append(jurors, j)
			if d.lit(']') {
				break
			}
			if !d.lit(',') {
				return nil, false
			}
		}
	}
	if !d.lit('}') {
		return nil, false
	}
	d.space()
	return jurors, d.i == len(d.b)
}

// jurorScanner is decodeJurors' cursor over the body.
type jurorScanner struct {
	b []byte
	i int
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (d *jurorScanner) space() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

// lit consumes the structural byte c after optional whitespace.
func (d *jurorScanner) lit(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key consumes the object key k and its colon.
func (d *jurorScanner) key(k string) bool {
	s, ok := d.str()
	return ok && string(s) == k && d.lit(':')
}

// str consumes a string without escapes or control bytes and returns
// its contents, which alias the body.
func (d *jurorScanner) str() ([]byte, bool) {
	if !d.lit('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// num consumes a token matching the JSON number grammar and parses it.
func (d *jurorScanner) num() (float64, bool) {
	d.space()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !d.digits():
		return 0, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			return 0, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	return v, err == nil
}

// digits consumes one or more decimal digits.
func (d *jurorScanner) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// juror consumes one juror object.
func (d *jurorScanner) juror() (jury.Juror, bool) {
	var j jury.Juror
	if !d.lit('{') {
		return j, false
	}
	if d.lit('}') {
		return j, true
	}
	var seen uint8 // keys consumed: 1 id, 2 error_rate, 4 cost
	for {
		k, ok := d.str()
		if !ok || !d.lit(':') {
			return j, false
		}
		ok = false
		switch {
		case string(k) == "id" && seen&1 == 0:
			seen |= 1
			var id []byte
			if id, ok = d.str(); ok {
				j.ID = string(id)
			}
		case string(k) == "error_rate" && seen&2 == 0:
			seen |= 2
			j.ErrorRate, ok = d.num()
		case string(k) == "cost" && seen&4 == 0:
			seen |= 4
			j.Cost, ok = d.num()
		}
		if !ok {
			return j, false
		}
		if d.lit('}') {
			return j, true
		}
		if !d.lit(',') {
			return j, false
		}
	}
}
