package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"juryselect/internal/dataio"
	"juryselect/internal/randx"
)

// crowdJurors draws n jurors as perfbench draws its pools: IDs j0, j1,
// …, ε ~ N(0.3, 0.15) and r ~ N(0.5, 0.2), both truncated.
func crowdJurors(n int, seed int64) []dataio.JurorJSON {
	src := randx.New(seed)
	out := make([]dataio.JurorJSON, n)
	for i := range out {
		out[i] = dataio.JurorJSON{
			ID:        "j" + strconv.Itoa(i),
			ErrorRate: src.TruncNormal(0.3, 0.15, 0, 1),
			Cost:      src.TruncNormal(0.5, 0.2, 0, 1e9),
		}
	}
	return out
}

// FuzzDecodeJurors checks the one-pass PUT decoder against
// encoding/json: whenever decodeJurors takes a body, jsonJurors must
// accept the same bytes and yield equal jurors, and the taken IDs must
// not alias the body. The seed corpus under testdata/fuzz holds
// canonical, indented, empty, zero-cost, escaped, upper-case-key,
// repeated-key and trailing-data bodies, among others. Explore with
//
//	go test -run '^$' -fuzz='^FuzzDecodeJurors$' ./internal/server/
func FuzzDecodeJurors(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		body = slices.Clone(body)
		got, ok := decodeJurors(body)
		if !ok {
			return
		}
		want, err := jsonJurors(body)
		if err != nil {
			t.Fatalf("took a body encoding/json rejects (%v): %q", err, body)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("decoded %q differently:\none-pass      %v\nencoding/json %v", body, got, want)
		}
		for i := range body {
			body[i] = 'x'
		}
		if !slices.Equal(got, want) {
			t.Fatalf("decoded IDs alias the body: %v", got)
		}
	})
}

// TestDecodeJurorsTakesCanonicalBodies requires the one-pass path for
// what clients send: json.Marshal and json.MarshalIndent of
// PutJurorsRequest, on random pools of 0, 1 and 1,001 jurors with
// non-ASCII IDs, omitted zero costs and rates down to 1e-300. The IDs
// avoid <, > and &, which json.Marshal escapes.
func TestDecodeJurorsTakesCanonicalBodies(t *testing.T) {
	alphabet := []rune("abxyz0189_-./: éßж日本")
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		req := PutJurorsRequest{Jurors: make([]dataio.JurorJSON, []int{0, 1, 1001}[trial%3])}
		for i := range req.Jurors {
			id := make([]rune, rng.Intn(8))
			for k := range id {
				id[k] = alphabet[rng.Intn(len(alphabet))]
			}
			j := dataio.JurorJSON{ID: string(id) + strconv.Itoa(i), ErrorRate: math.Pow(10, -300*rng.Float64())}
			switch rng.Intn(3) {
			case 0: // zero: omitted on the wire
			case 1:
				j.Cost = rng.Float64()
			default:
				j.Cost = math.Pow(10, 40*rng.Float64()-20)
			}
			req.Jurors[i] = j
		}
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, append(indented, '\n')} {
			got, ok := decodeJurors(body)
			if !ok {
				t.Fatalf("trial %d: a canonical body fell back:\n%.300s", trial, body)
			}
			want, err := jsonJurors(body)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("trial %d: one-pass jurors differ from encoding/json's (err %v)", trial, err)
			}
		}
	}
}

// TestDecodeJurorsDeclines lists bodies the one-pass decoder leaves to
// encoding/json, with whether encoding/json accepts them.
func TestDecodeJurorsDeclines(t *testing.T) {
	for _, tc := range []struct {
		body  string
		valid bool
	}{
		{`{"jurors":[{"id":"a\u0062","error_rate":0.2}]}`, true},
		{`{"jurors":[{"\u0069d":"a","error_rate":0.2}]}`, true},
		{`{"jurors":[{"ID":"a","error_rate":0.2}]}`, true},
		{`{"Jurors":[{"id":"a","error_rate":0.2}]}`, true},
		{`{"jurors":[{"id":"a","coſt":1,"error_rate":0.2}]}`, true}, // ſ folds to s
		{`{"jurors":[{"id":"a","id":"b","error_rate":0.2}]}`, true},
		{`{"jurors":[],"jurors":[]}`, true},
		{`{"jurors":[{"id":"a","error_rate":null}]}`, true},
		{`{"jurors":null}`, true},
		{`{}`, true},
		{"{\"jurors\":[{\"id\":\"a\xff\",\"error_rate\":0.2}]}", true},
		{"{\"jurors\":[{\"id\":\"a\tb\",\"error_rate\":0.2}]}", false},
		{`{"jurors":[{"id":"a","error_rate":0.2,"votes":1}]}`, false},
		{`{"jurors":[{"id":5,"error_rate":0.2}]}`, false},
		{`{"jurors":[{"id":"a","error_rate":"0.2"}]}`, false},
		{`{"jurors":[{"id":"a","error_rate":1e400}]}`, false},
		{`{"jurors":[{"id":"a","error_rate":01}]}`, false},
		{`{"jurors":[{"id":"a","error_rate":.5}]}`, false},
		{`{"jurors":[{"id":"a","error_rate":-}]}`, false},
		{`{"jurors":[{"id":"a","error_rate":0.2},]}`, false},
		{`{"jurors":[{"id":"a","error_rate":0.2}]`, false},
		{`{"jurors":[{"id":"a","error_rate":0.2}]} x`, false},
		{`{"jurors":[{"id":"a","error_rate":0.2}]}{}`, false},
	} {
		if _, ok := decodeJurors([]byte(tc.body)); ok {
			t.Errorf("one-pass decoder took %q", tc.body)
		}
		if _, err := jsonJurors([]byte(tc.body)); (err == nil) != tc.valid {
			t.Errorf("encoding/json on %q: err %v, want valid=%v", tc.body, err, tc.valid)
		}
	}
}

// BenchmarkDecodeJurors decodes one 1,001-juror PUT body both ways.
func BenchmarkDecodeJurors(b *testing.B) {
	body, err := json.Marshal(PutJurorsRequest{Jurors: crowdJurors(1001, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := decodeJurors(body); !ok {
				b.Fatal("fell back")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jsonJurors(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
