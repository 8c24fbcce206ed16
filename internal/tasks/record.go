package tasks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"juryselect/internal/pool"
)

// WAL record types. Every record is a mutation that already passed
// validation: replay applies records mechanically and deterministically.
// Decisions driven by wall-clock time (a juror timing out, a task
// expiring) are journaled as their own records, so replay never
// re-consults a clock — the property behind byte-identical recovery.
const (
	recPoolPut    = "pool_put"
	recPoolPatch  = "pool_patch"
	recPoolDelete = "pool_delete"
	recTaskCreate = "task_create"
	recVote       = "vote"
	recDecline    = "decline"
	recExpire     = "expire"
)

// recJuror is the journaled form of one selected juror: the estimate and
// cost selection saw, pinned so replay does not depend on later pool
// drift.
type recJuror struct {
	ID        string  `json:"id"`
	ErrorRate float64 `json:"rate"`
	Cost      float64 `json:"cost,omitempty"`
}

// record is one WAL entry; Type discriminates.
type record struct {
	Type string
	At   time.Time

	// Pool mutations.
	Pool    string
	Jurors  []pool.JurorState
	Updates []pool.JurorUpdate

	// Task mutations.
	Task         string
	Seq          uint64
	Spec         *Spec
	Jury         []recJuror
	PoolVersion  uint64
	PredictedJER float64
	Juror        string
	Vote         *bool
	Timeout      bool
}

// Binary record encoding (v2): a hand-rolled append-style encoding on
// pooled buffers that allocates nothing on the vote hot path. The first
// byte is a type tag < 0x20; a payload starting with '{' (0x7B) is a
// pre-v2 JSON record, which replay refuses with ErrPreV2WAL.
//
//	record  := tag:u8  fields…
//	time    := sec:varint  nsec:uvarint  zoneOffsetSec:varint
//	string  := len:uvarint  bytes
//	f64     := 8 bytes, IEEE-754 bits little-endian
//	bool    := u8 (0|1)
//	int     := varint (zig-zag)
//
// Timestamps reconstruct the exact wall clock and zone offset, so views
// rendered after replay marshal byte-identically to the live run's.
const (
	tagPoolPut    byte = 0x01
	tagPoolPatch  byte = 0x02
	tagPoolDelete byte = 0x03
	tagTaskCreate byte = 0x04
	tagVote       byte = 0x05
	tagDecline    byte = 0x06
	tagExpire     byte = 0x07
)

// patch-update presence flags (one byte per JurorUpdate).
const (
	updHasRate byte = 1 << iota
	updHasCost
	updHasVotes
	updRemove
)

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendTime journals the wall clock exactly: unix seconds, nanoseconds
// and the zone's offset from UTC. decodeTime rebuilds a Time whose
// RFC 3339 rendering is byte-identical to the original's.
func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	b = binary.AppendUvarint(b, uint64(t.Nanosecond()))
	_, offset := t.Zone()
	return binary.AppendVarint(b, int64(offset))
}

// encodeRecord appends the record's binary form to buf (a pooled
// buffer on the hot path) and returns the extended slice.
func encodeRecord(buf []byte, rec *record) ([]byte, error) {
	switch rec.Type {
	case recVote:
		if rec.Vote == nil {
			return nil, fmt.Errorf("tasks: encoding vote record: missing vote")
		}
		buf = append(buf, tagVote)
		buf = appendTime(buf, rec.At)
		buf = appendStr(buf, rec.Task)
		buf = appendStr(buf, rec.Juror)
		return appendBool(buf, *rec.Vote), nil
	case recDecline:
		buf = append(buf, tagDecline)
		buf = appendTime(buf, rec.At)
		buf = appendStr(buf, rec.Task)
		buf = appendStr(buf, rec.Juror)
		return appendBool(buf, rec.Timeout), nil
	case recExpire:
		buf = append(buf, tagExpire)
		buf = appendTime(buf, rec.At)
		return appendStr(buf, rec.Task), nil
	case recTaskCreate:
		if rec.Spec == nil {
			return nil, fmt.Errorf("tasks: encoding create record: missing spec")
		}
		buf = append(buf, tagTaskCreate)
		buf = appendTime(buf, rec.At)
		buf = binary.AppendUvarint(buf, rec.Seq)
		buf = binary.AppendUvarint(buf, rec.PoolVersion)
		buf = appendF64(buf, rec.PredictedJER)
		sp := rec.Spec
		buf = appendStr(buf, sp.Pool)
		buf = appendStr(buf, sp.Question)
		buf = appendStr(buf, sp.Strategy)
		buf = appendF64(buf, sp.Budget)
		buf = appendF64(buf, sp.TargetConfidence)
		buf = binary.AppendVarint(buf, int64(sp.MaxInvites))
		buf = binary.AppendVarint(buf, int64(sp.JurorTimeout))
		buf = binary.AppendVarint(buf, int64(sp.ExpiresIn))
		buf = binary.AppendUvarint(buf, uint64(len(rec.Jury)))
		for _, j := range rec.Jury {
			buf = appendStr(buf, j.ID)
			buf = appendF64(buf, j.ErrorRate)
			buf = appendF64(buf, j.Cost)
		}
		return buf, nil
	case recPoolPut:
		buf = append(buf, tagPoolPut)
		buf = appendTime(buf, rec.At)
		buf = appendStr(buf, rec.Pool)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Jurors)))
		for _, j := range rec.Jurors {
			buf = appendStr(buf, j.ID)
			buf = appendF64(buf, j.ErrorRate)
			buf = appendF64(buf, j.Cost)
			buf = binary.AppendVarint(buf, j.WrongVotes)
			buf = binary.AppendVarint(buf, j.TotalVotes)
		}
		return buf, nil
	case recPoolPatch:
		buf = append(buf, tagPoolPatch)
		buf = appendTime(buf, rec.At)
		buf = appendStr(buf, rec.Pool)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Updates)))
		for _, u := range rec.Updates {
			buf = appendStr(buf, u.ID)
			var flags byte
			if u.ErrorRate != nil {
				flags |= updHasRate
			}
			if u.Cost != nil {
				flags |= updHasCost
			}
			if u.Votes != nil {
				flags |= updHasVotes
			}
			if u.Remove {
				flags |= updRemove
			}
			buf = append(buf, flags)
			if u.ErrorRate != nil {
				buf = appendF64(buf, *u.ErrorRate)
			}
			if u.Cost != nil {
				buf = appendF64(buf, *u.Cost)
			}
			if u.Votes != nil {
				buf = binary.AppendVarint(buf, u.Votes.Wrong)
				buf = binary.AppendVarint(buf, u.Votes.Total)
			}
		}
		return buf, nil
	case recPoolDelete:
		buf = append(buf, tagPoolDelete)
		return appendStr(buf, rec.Pool), nil
	default:
		return nil, fmt.Errorf("tasks: encoding unknown record type %q", rec.Type)
	}
}

// internTable dedups what a replay decodes over and over: task and
// juror IDs repeat across thousands of records, and a fresh heap string
// per occurrence dominated replay's allocation profile (~76% of
// objects). The map is keyed by the string itself — a lookup with a
// []byte conversion key compiles to zero allocations — so only each
// distinct value's first occurrence allocates. One table per decoder
// goroutine; it is not safe for concurrent use.
type internTable struct {
	strs    map[string]string
	zoneOff int64
	zone    *time.Location
}

func newInternTable() *internTable {
	return &internTable{strs: make(map[string]string, 256)}
}

func (tab *internTable) str(b []byte) string {
	if s, ok := tab.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	tab.strs[s] = s
	return s
}

// fixedZone caches the last fixed zone seen: records in one log almost
// always share an offset, and time.FixedZone allocates.
func (tab *internTable) fixedZone(offset int64) *time.Location {
	if tab.zone == nil || tab.zoneOff != offset {
		tab.zoneOff, tab.zone = offset, time.FixedZone("", int(offset))
	}
	return tab.zone
}

// sharedTrue and sharedFalse back the *bool fields of decoded records,
// saving one heap bool per vote. Decoded records are read-only
// downstream, so sharing the pointees is safe.
var sharedTrue, sharedFalse = true, false

func sharedBool(v bool) *bool {
	if v {
		return &sharedTrue
	}
	return &sharedFalse
}

// recReader walks a binary record payload. Errors are sticky; callers
// check once at the end. tab interns decoded strings and zones.
type recReader struct {
	buf []byte
	pos int
	err error
	tab *internTable
}

func (r *recReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("tasks: truncated binary wal record")
	}
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *recReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *recReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)-r.pos) < n {
		r.fail()
		return ""
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return r.tab.str(b)
}

func (r *recReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

func (r *recReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		r.fail()
		return false
	}
	v := r.buf[r.pos]
	r.pos++
	return v != 0
}

func (r *recReader) time() time.Time {
	sec := r.varint()
	nsec := r.uvarint()
	offset := r.varint()
	if r.err != nil {
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if offset == 0 {
		return t.UTC()
	}
	return t.In(r.tab.fixedZone(offset))
}

// ErrPreV2WAL reports a WAL record in the pre-v2 JSON framing. Replay
// does not decode it: Open fails, naming the log file, instead of
// guessing.
var ErrPreV2WAL = errors.New("tasks: wal record in the pre-v2 JSON framing, which this version does not replay")

// decodeRecord decodes one binary v2 WAL payload. tab interns the
// strings and zones replay decodes over and over, so repeated IDs come
// back as shared values instead of fresh allocations.
func decodeRecord(payload []byte, tab *internTable) (record, error) {
	if len(payload) == 0 {
		return record{}, fmt.Errorf("tasks: empty wal record")
	}
	if payload[0] == '{' {
		return record{}, ErrPreV2WAL
	}
	r := recReader{buf: payload, pos: 1, tab: tab}
	var rec record
	switch payload[0] {
	case tagVote:
		rec.Type = recVote
		rec.At = r.time()
		rec.Task = r.str()
		rec.Juror = r.str()
		rec.Vote = sharedBool(r.bool())
	case tagDecline:
		rec.Type = recDecline
		rec.At = r.time()
		rec.Task = r.str()
		rec.Juror = r.str()
		rec.Timeout = r.bool()
	case tagExpire:
		rec.Type = recExpire
		rec.At = r.time()
		rec.Task = r.str()
	case tagTaskCreate:
		rec.Type = recTaskCreate
		rec.At = r.time()
		rec.Seq = r.uvarint()
		rec.PoolVersion = r.uvarint()
		rec.PredictedJER = r.f64()
		sp := &Spec{}
		sp.Pool = r.str()
		sp.Question = r.str()
		sp.Strategy = r.str()
		sp.Budget = r.f64()
		sp.TargetConfidence = r.f64()
		sp.MaxInvites = int(r.varint())
		sp.JurorTimeout = time.Duration(r.varint())
		sp.ExpiresIn = time.Duration(r.varint())
		rec.Spec = sp
		n := r.uvarint()
		if r.err == nil && n > uint64(len(payload)) {
			r.fail() // impossible count: each juror is > 1 byte
		}
		if r.err == nil {
			rec.Jury = make([]recJuror, n)
			for i := range rec.Jury {
				rec.Jury[i] = recJuror{ID: r.str(), ErrorRate: r.f64(), Cost: r.f64()}
			}
		}
	case tagPoolPut:
		rec.Type = recPoolPut
		rec.At = r.time()
		rec.Pool = r.str()
		n := r.uvarint()
		if r.err == nil && n > uint64(len(payload)) {
			r.fail()
		}
		if r.err == nil {
			rec.Jurors = make([]pool.JurorState, n)
			for i := range rec.Jurors {
				rec.Jurors[i] = pool.JurorState{
					ID: r.str(), ErrorRate: r.f64(), Cost: r.f64(),
					WrongVotes: r.varint(), TotalVotes: r.varint(),
				}
			}
		}
	case tagPoolPatch:
		rec.Type = recPoolPatch
		rec.At = r.time()
		rec.Pool = r.str()
		n := r.uvarint()
		if r.err == nil && n > uint64(len(payload)) {
			r.fail()
		}
		if r.err == nil {
			rec.Updates = make([]pool.JurorUpdate, n)
			for i := range rec.Updates {
				u := &rec.Updates[i]
				u.ID = r.str()
				flags := byte(0)
				if r.pos < len(r.buf) {
					flags = r.buf[r.pos]
					r.pos++
				} else {
					r.fail()
				}
				if flags&updHasRate != 0 {
					v := r.f64()
					u.ErrorRate = &v
				}
				if flags&updHasCost != 0 {
					v := r.f64()
					u.Cost = &v
				}
				if flags&updHasVotes != 0 {
					u.Votes = &pool.VoteObservation{Wrong: r.varint(), Total: r.varint()}
				}
				u.Remove = flags&updRemove != 0
			}
		}
	case tagPoolDelete:
		rec.Type = recPoolDelete
		rec.Pool = r.str()
	default:
		return rec, fmt.Errorf("tasks: unknown wal record tag 0x%02x", payload[0])
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.pos != len(payload) {
		return rec, fmt.Errorf("tasks: %d trailing bytes in %s record", len(payload)-r.pos, rec.Type)
	}
	return rec, nil
}
