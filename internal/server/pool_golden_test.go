package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"juryselect/internal/dataio"
	"juryselect/internal/tasks"
)

// TestPoolBytesGolden pins every byte a pool is served and stored as,
// on a fixed clock and a seeded pool: the PUT and PATCH answers and the
// GET /v1/pools/{name} body (rate_lo/rate_hi included) after a PUT and
// after each step of a PATCH sequence — vote batches, rate and cost
// sets, removes, inserts, one ID named twice in a patch, rejected
// patches — then every frame of the WAL those writes journaled and of
// the snapshot.bin a compaction writes. Reopening on the WAL and then on
// the snapshot must serve the same GET bodies. Regenerate with
// go test ./internal/server -run TestPoolBytesGolden -update, and only
// for a change that means to alter these bytes.
func TestPoolBytesGolden(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 4, 2, 9, 30, 0, 0, time.UTC)
	open := func() *tasks.Store {
		st, err := tasks.Open(tasks.Config{Dir: dir, Sync: tasks.SyncOff, CompactEvery: -1,
			Now: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var out bytes.Buffer
	send := func(srv *Server, method, path, body string) {
		t.Helper()
		now = now.Add(1500 * time.Millisecond)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if body != "" {
			fmt.Fprintf(&out, "== %s %s %s\n", method, path, body)
		} else {
			fmt.Fprintf(&out, "== %s %s\n", method, path)
		}
		fmt.Fprintf(&out, "%d %s", rec.Code, rec.Body.Bytes())
	}
	patch := func(srv *Server, name string, ups ...JurorUpdateJSON) {
		t.Helper()
		raw, err := json.Marshal(PatchJurorsRequest{Updates: ups})
		if err != nil {
			t.Fatal(err)
		}
		send(srv, http.MethodPatch, "/v1/pools/"+name+"/jurors", string(raw))
		send(srv, http.MethodGet, "/v1/pools/"+name, "")
	}
	votes := func(wrong, total int64) *VotesJSON { return &VotesJSON{Wrong: wrong, Total: total} }

	// A crowd whose ε values tie heavily and whose insertion order is
	// not ID order.
	rng := rand.New(rand.NewSource(22))
	rates := []float64{0.05, 0.1, 0.2, 0.2, 0.3, 0.35}
	crowd := PutJurorsRequest{Jurors: make([]dataio.JurorJSON, 24)}
	for i, k := range rng.Perm(len(crowd.Jurors)) {
		rate := rates[rng.Intn(len(rates))]
		if i%5 == 4 {
			rate = 0.05 + 0.4*rng.Float64()
		}
		crowd.Jurors[i] = dataio.JurorJSON{ID: fmt.Sprintf("c%02d", k), ErrorRate: rate, Cost: float64(rng.Intn(4)) * 0.25}
	}
	body, err := json.Marshal(crowd)
	if err != nil {
		t.Fatal(err)
	}

	st := open()
	srv := New(Config{Tasks: st})
	send(srv, http.MethodPut, "/v1/pools/crowd/jurors", string(body))
	send(srv, http.MethodGet, "/v1/pools/crowd", "")
	send(srv, http.MethodPut, "/v1/pools/panel/jurors",
		`{"jurors":[{"id":"p2","error_rate":0.3},{"id":"p0","error_rate":0.1,"cost":1},{"id":"p1","error_rate":0.3,"cost":0.5}]}`)
	send(srv, http.MethodGet, "/v1/pools/panel", "")

	id := func(i int) string { return crowd.Jurors[i].ID }
	patch(srv, "crowd", JurorUpdateJSON{ID: id(3), Votes: votes(2, 9)}, JurorUpdateJSON{ID: id(7), Votes: votes(0, 4)})
	patch(srv, "crowd", JurorUpdateJSON{ID: id(3), Votes: votes(5, 6)}, JurorUpdateJSON{ID: id(0), Cost: f64(2.5)})
	patch(srv, "crowd", JurorUpdateJSON{ID: id(7), ErrorRate: f64(0.2)}, JurorUpdateJSON{ID: id(1), Remove: true})
	patch(srv, "crowd", JurorUpdateJSON{ID: "n00", ErrorRate: f64(0.2), Cost: f64(0.75)},
		JurorUpdateJSON{ID: "n00", Votes: votes(1, 3)})
	patch(srv, "crowd", JurorUpdateJSON{ID: id(3), Remove: true},
		JurorUpdateJSON{ID: id(3), ErrorRate: f64(0.1), Votes: votes(0, 2)})
	patch(srv, "crowd", JurorUpdateJSON{ID: "n01", ErrorRate: f64(0.05)}, JurorUpdateJSON{ID: "n01", Remove: true},
		JurorUpdateJSON{ID: id(5), ErrorRate: f64(0.3), Cost: f64(0), Votes: votes(3, 3)})
	// Rejected patches publish nothing.
	patch(srv, "crowd", JurorUpdateJSON{ID: id(2), Votes: votes(1, 1)}, JurorUpdateJSON{ID: "ghost", Cost: f64(1)})
	patch(srv, "crowd", JurorUpdateJSON{ID: id(2), Votes: votes(4, 2)})
	patch(srv, "crowd", JurorUpdateJSON{ID: id(4), ErrorRate: f64(1.5)})
	patch(srv, "panel", JurorUpdateJSON{ID: "p0", Remove: true}, JurorUpdateJSON{ID: "p1", Remove: true},
		JurorUpdateJSON{ID: "p2", Remove: true})
	patch(srv, "panel", JurorUpdateJSON{ID: "p1", Votes: votes(3, 7)}, JurorUpdateJSON{ID: "p9", ErrorRate: f64(0.15)},
		JurorUpdateJSON{ID: "p2", Remove: true})
	// Seeded steps over the live members.
	for step := 0; step < 8; step++ {
		p, _ := st.Pools().Get("crowd")
		var ups []JurorUpdateJSON
		for _, i := range rng.Perm(p.Size())[:1+rng.Intn(3)] {
			mid := p.Sorted()[i].ID
			switch rng.Intn(4) {
			case 0:
				ups = append(ups, JurorUpdateJSON{ID: mid, ErrorRate: f64(rates[rng.Intn(len(rates))])})
			case 1:
				total := int64(1 + rng.Intn(12))
				ups = append(ups, JurorUpdateJSON{ID: mid, Votes: votes(rng.Int63n(total+1), total)})
			case 2:
				ups = append(ups, JurorUpdateJSON{ID: mid, Remove: true})
			default:
				ups = append(ups, JurorUpdateJSON{ID: fmt.Sprintf("r%d", step), ErrorRate: f64(0.05 + 0.4*rng.Float64()),
					Votes: votes(0, int64(rng.Intn(5)))})
			}
		}
		patch(srv, "crowd", ups...)
	}
	// Replaying the WAL, and reopening on the snapshot a compaction
	// writes, serve the bytes the live store served.
	bodies := func(srv *Server) string {
		var b bytes.Buffer
		for _, name := range []string{"crowd", "panel"} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/pools/"+name, nil))
			b.Write(rec.Body.Bytes())
		}
		return b.String()
	}
	live := bodies(srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dumpFrames(t, &out, dir, "wal-000000.log")
	st = open()
	if replayed := bodies(New(Config{Tasks: st})); replayed != live {
		t.Fatalf("pools replayed from the WAL differ from the live ones:\n%s\n%s", replayed, live)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dumpFrames(t, &out, dir, "snapshot.bin")
	st = open()
	defer st.Close()
	if !st.Recovery().SnapshotLoaded {
		t.Fatal("reopen did not load the compaction snapshot")
	}
	if restored := bodies(New(Config{Tasks: st})); restored != live {
		t.Fatalf("pools restored from the snapshot differ from the live ones:\n%s\n%s", restored, live)
	}

	golden := filepath.Join("testdata", "pool_bytes.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var a, b string
			if i < len(got) {
				a = got[i]
			}
			if i < len(exp) {
				b = exp[i]
			}
			if a != b {
				t.Fatalf("pool bytes differ from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, a, b)
			}
		}
	}
}

// dumpFrames writes each frame payload of a file in the WAL's framing
// (len:u32le crc:u32le payload) as one hex line.
func dumpFrames(t *testing.T, out *bytes.Buffer, dir, name string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "== %s\n", name)
	for len(raw) > 0 {
		if len(raw) < 8 {
			t.Fatalf("%s: torn frame header", name)
		}
		n := int(binary.LittleEndian.Uint32(raw))
		if len(raw) < 8+n {
			t.Fatalf("%s: torn frame", name)
		}
		fmt.Fprintf(out, "%s\n", hex.EncodeToString(raw[8:8+n]))
		raw = raw[8+n:]
	}
}
