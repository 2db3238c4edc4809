// Package provenance implements the durable audit trail a Datagridflow
// Management System must keep: every DGMS operation and every flow/step
// transition is recorded, and the records can be queried "even (years)
// after the execution" (paper §2.1). Records append to an in-memory index
// and, optionally, to a JSON-lines file that survives process restarts.
//
// The in-memory index lives as long as the process and grows with every
// operation, so it holds no pointers the garbage collector must scan per
// record: each record is a fixed-size row in a fixed-capacity chunk, its
// low-cardinality fields are ids into a shared symbol table, and its
// remaining fields are length-prefixed bytes in append-only blocks.
package provenance

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Outcome of a recorded operation.
const (
	// OutcomeOK marks a successful operation.
	OutcomeOK = "ok"
	// OutcomeError marks a failed operation.
	OutcomeError = "error"
	// OutcomeSkipped marks an operation elided (e.g. virtual-data hit).
	OutcomeSkipped = "skipped"
)

// Record is one provenance entry.
type Record struct {
	// Seq is assigned by the store; strictly increasing from 1.
	Seq int64 `json:"seq"`
	// Time is the (simulated) instant of the operation.
	Time time.Time `json:"time"`
	// Actor is the grid user or system component that acted.
	Actor string `json:"actor,omitempty"`
	// Action names the operation ("ingest", "replicate", "step.start", ...).
	Action string `json:"action"`
	// Target is the logical path or id acted on.
	Target string `json:"target,omitempty"`
	// FlowID and StepID tie the record to a datagridflow execution.
	FlowID string `json:"flow_id,omitempty"`
	StepID string `json:"step_id,omitempty"`
	// Outcome is OutcomeOK, OutcomeError or OutcomeSkipped.
	Outcome string `json:"outcome"`
	// Err carries the error text when Outcome is OutcomeError.
	Err string `json:"err,omitempty"`
	// Detail holds free-form key/value context (sizes, resources, ...).
	Detail map[string]string `json:"detail,omitempty"`
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("provenance: store closed")

const (
	// chunkRows is the capacity of one index chunk; a full chunk is never
	// copied, the next record starts a new one.
	chunkRows = 1024
	// blockSize is the capacity of one field block. A record whose field
	// bytes exceed it gets a block of its own size.
	blockSize = 64 << 10
)

// row is the pointer-free index entry of one record.
type row struct {
	seq  int64
	sec  int64 // Time as Unix seconds
	nsec int32
	loc  uint32 // index into symtab.locs
	// Symbol ids of Actor, Action, FlowID and Outcome; id 0 is "".
	actor, action, flow, outcome uint32
	// The record's field bytes are blocks[block][off:off+n]; n == 0 when
	// Target, StepID, Err and Detail are all empty.
	block, off, n uint32
}

// Store is an append-only provenance log. The zero value is not usable;
// construct with NewMemory or Open.
type Store struct {
	syms symtab

	mu      sync.RWMutex
	chunks  []*[chunkRows]row
	rows    int
	blocks  [][]byte // the last block receives new field bytes
	nextSeq int64
	w       *bufio.Writer // nil for memory-only stores
	f       *os.File
	closed  bool
}

// NewMemory returns a store that keeps records only in memory.
func NewMemory() *Store {
	return &Store{nextSeq: 1, syms: newSymtab()}
}

// Open returns a store persisted to the JSON-lines file at path, loading
// any records already present — this is what lets an auditor query flows
// that ran in past processes.
//
// A process killed mid-write can leave a final line without its '\n'. If
// that line does not decode, Open truncates it away and sequence numbers
// continue after the last complete record; an undecodable line that does
// end in '\n' is corruption and fails Open.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("provenance: open %s: %w", path, err)
	}
	s := NewMemory()
	s.f = f
	end, tail, err := s.load(f)
	if err == nil && tail == tailTorn {
		err = f.Truncate(end)
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("provenance: open %s: %w", path, err)
	}
	s.w = bufio.NewWriter(f)
	if tail == tailUnterminated {
		// The last record decoded but lost its newline; restore it so the
		// next record starts a line of its own.
		_ = s.w.WriteByte('\n') // a write error is sticky and fails the next Append
	}
	return s, nil
}

// What follows a log's last complete line.
const (
	tailNone         = iota // nothing
	tailUnterminated        // a decodable record without its '\n'
	tailTorn                // undecodable bytes without a '\n'
)

// load indexes every record of the JSON-lines log in r and returns the
// offset just past the last record kept and what follows it.
func (s *Store) load(r io.Reader) (end int64, tail int, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return 0, 0, rerr
		}
		if rerr == io.EOF {
			if len(line) == 0 {
				return end, tailNone, nil
			}
			if s.loadLine(line) != nil {
				return end, tailTorn, nil
			}
			return end + int64(len(line)), tailUnterminated, nil
		}
		if len(bytes.TrimLeft(line, " \t\r\n")) > 0 {
			if err := s.loadLine(line); err != nil {
				return 0, 0, fmt.Errorf("corrupt log at byte %d: %w", end, err)
			}
		}
		end += int64(len(line))
	}
}

// loadLine indexes one JSON-encoded record, keeping its sequence number.
func (s *Store) loadLine(line []byte) error {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	var buf [256]byte
	rw, data := s.encode(&r, buf[:0])
	rw.seq = r.Seq
	s.commit(rw, data)
	if r.Seq >= s.nextSeq {
		s.nextSeq = r.Seq + 1
	}
	return nil
}

// Append records r, assigning and returning its sequence number. A
// record that cannot be encoded or written gets no sequence number and
// never becomes visible.
func (s *Store) Append(r Record) (int64, error) {
	if r.Outcome == "" {
		r.Outcome = OutcomeOK
	}
	var buf [256]byte
	rw, data := s.encode(&r, buf[:0])
	var line []byte
	if s.w != nil {
		r.Seq = 0
		b, err := json.Marshal(r)
		if err != nil {
			return 0, fmt.Errorf("provenance: marshal: %w", err)
		}
		// The store fills in the sequence number under its lock.
		line = append(bytes.TrimPrefix(b, []byte(`{"seq":0`)), '\n')
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	rw.seq = s.nextSeq
	if s.w != nil {
		if err := writeLine(s.w, rw.seq, line); err != nil {
			return 0, fmt.Errorf("provenance: write: %w", err)
		}
	}
	s.nextSeq++
	s.commit(rw, data)
	return rw.seq, nil
}

// writeLine writes one JSON-lines record: the sequence number, then the
// rest of the object as json.Marshal produced it.
func writeLine(w *bufio.Writer, seq int64, rest []byte) error {
	_, _ = w.WriteString(`{"seq":`) // bufio write errors are sticky
	_, _ = w.Write(strconv.AppendInt(w.AvailableBuffer(), seq, 10))
	_, err := w.Write(rest)
	return err
}

// encode returns r's index row, without its sequence number, and its
// field bytes appended to buf. It interns r's symbols but touches no
// other store state, so it runs outside the store lock.
func (s *Store) encode(r *Record, buf []byte) (row, []byte) {
	rw := row{sec: r.Time.Unix(), nsec: int32(r.Time.Nanosecond())}
	s.syms.intern(r, &rw)
	if r.Target == "" && r.StepID == "" && r.Err == "" && len(r.Detail) == 0 {
		return rw, buf
	}
	buf = appendField(buf, r.Target)
	buf = appendField(buf, r.StepID)
	buf = appendField(buf, r.Err)
	buf = binary.AppendUvarint(buf, uint64(len(r.Detail)))
	for k, v := range r.Detail {
		buf = appendField(buf, k)
		buf = appendField(buf, v)
	}
	return rw, buf
}

func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// commit copies data into the current block and adds rw to the index.
// The caller holds s.mu (or owns s exclusively, during Open).
func (s *Store) commit(rw row, data []byte) {
	if len(data) > 0 {
		last := len(s.blocks) - 1
		if last < 0 || len(s.blocks[last])+len(data) > cap(s.blocks[last]) {
			s.blocks = append(s.blocks, make([]byte, 0, max(blockSize, len(data))))
			last++
		}
		b := s.blocks[last]
		rw.block, rw.off, rw.n = uint32(last), uint32(len(b)), uint32(len(data))
		s.blocks[last] = append(b, data...)
	}
	if s.rows%chunkRows == 0 {
		s.chunks = append(s.chunks, new([chunkRows]row))
	}
	s.chunks[s.rows/chunkRows][s.rows%chunkRows] = rw
	s.rows++
}

// row returns the i-th record's index row; the caller holds s.mu.
func (s *Store) row(i int) *row {
	return &s.chunks[i/chunkRows][i%chunkRows]
}

// fields returns rw's field bytes; the caller holds s.mu.
func (s *Store) fields(rw *row) []byte {
	if rw.n == 0 {
		return nil
	}
	return s.blocks[rw.block][rw.off : rw.off+rw.n]
}

// decode materializes the record behind rw; the caller holds s.mu.
func (s *Store) decode(rw *row, names []string, locs []*time.Location) Record {
	r := Record{
		Seq:     rw.seq,
		Time:    time.Unix(rw.sec, int64(rw.nsec)).In(locs[rw.loc]),
		Actor:   names[rw.actor],
		Action:  names[rw.action],
		FlowID:  names[rw.flow],
		Outcome: names[rw.outcome],
	}
	b := s.fields(rw)
	if len(b) == 0 {
		return r
	}
	var f []byte
	f, b = nextField(b)
	r.Target = string(f)
	f, b = nextField(b)
	r.StepID = string(f)
	f, b = nextField(b)
	r.Err = string(f)
	n, k := binary.Uvarint(b)
	b = b[k:]
	if n > 0 {
		r.Detail = make(map[string]string, n)
		for ; n > 0; n-- {
			var key, val []byte
			key, b = nextField(b)
			val, b = nextField(b)
			r.Detail[string(key)] = string(val)
		}
	}
	return r
}

// nextField splits one length-prefixed field off b.
func nextField(b []byte) (field, rest []byte) {
	n, k := binary.Uvarint(b)
	end := k + int(n)
	return b[k:end], b[end:]
}

// Flush forces buffered records to the underlying file.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.w != nil {
		return s.w.Flush()
	}
	return nil
}

// Close flushes and closes the backing file (if any). The in-memory index
// stays readable after Close for final reporting, but appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			s.f.Close()
			return err
		}
		return s.f.Close()
	}
	return nil
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows
}

// Filter selects records; zero-value fields match everything.
type Filter struct {
	FlowID       string
	StepID       string
	Actor        string
	Action       string    // exact action name
	ActionPrefix string    // e.g. "step." for all step transitions
	TargetPrefix string    // logical path subtree
	Outcome      string    // OutcomeOK / OutcomeError / OutcomeSkipped
	Since        time.Time // inclusive
	Until        time.Time // exclusive; zero means no bound
	Limit        int       // 0 = unlimited
}

// matcher is a Filter resolved against a store's symbol table, so that
// matching a row compares integers and raw bytes and allocates nothing.
type matcher struct {
	f Filter
	// Wanted symbol ids; 0 matches any.
	actor, action, flow, outcome uint32
	// none is set when the filter names a symbol no record carries.
	none  bool
	names []string
	locs  []*time.Location
}

// before reports whether rw's time is before t.
func (rw *row) before(t time.Time) bool {
	sec := t.Unix()
	return rw.sec < sec || (rw.sec == sec && rw.nsec < int32(t.Nanosecond()))
}

func (m *matcher) match(s *Store, rw *row) bool {
	if (m.actor != 0 && rw.actor != m.actor) || (m.action != 0 && rw.action != m.action) ||
		(m.flow != 0 && rw.flow != m.flow) || (m.outcome != 0 && rw.outcome != m.outcome) {
		return false
	}
	if m.f.ActionPrefix != "" && !strings.HasPrefix(m.names[rw.action], m.f.ActionPrefix) {
		return false
	}
	if !m.f.Since.IsZero() && rw.before(m.f.Since) {
		return false
	}
	if !m.f.Until.IsZero() && !rw.before(m.f.Until) {
		return false
	}
	if m.f.TargetPrefix != "" || m.f.StepID != "" {
		target, rest := nextField(s.fields(rw))
		step, _ := nextField(rest)
		if p := m.f.TargetPrefix; len(target) < len(p) || string(target[:len(p)]) != p {
			return false
		}
		if m.f.StepID != "" && string(step) != m.f.StepID {
			return false
		}
	}
	return true
}

// Query returns matching records in sequence order.
func (s *Store) Query(f Filter) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.syms.matcher(f)
	if m.none {
		return nil
	}
	var out []Record
	for i := 0; i < s.rows; i++ {
		rw := s.row(i)
		if !m.match(s, rw) {
			continue
		}
		out = append(out, s.decode(rw, m.names, m.locs))
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Count returns the number of records matching f without materializing
// them.
func (s *Store) Count(f Filter) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.syms.matcher(f)
	if m.none {
		return 0
	}
	n := 0
	for i := 0; i < s.rows; i++ {
		if m.match(s, s.row(i)) {
			n++
		}
	}
	return n
}

// Last returns the most recent record matching f, if any.
func (s *Store) Last(f Filter) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.syms.matcher(f)
	if m.none {
		return Record{}, false
	}
	for i := s.rows - 1; i >= 0; i-- {
		if rw := s.row(i); m.match(s, rw) {
			return s.decode(rw, m.names, m.locs), true
		}
	}
	return Record{}, false
}

// symtab interns the strings of the low-cardinality record fields and
// FlowID, and the records' time locations.
type symtab struct {
	mu     sync.RWMutex
	ids    map[string]uint32 // name → id; "" is id 0 and not in the map
	names  []string          // id → name
	locIDs map[locKey]uint32
	locs   []*time.Location // index → location; 0 is UTC
}

// locKey identifies a time location: by pointer, except for the unnamed
// fixed zones JSON decoding creates afresh for each time, by offset.
type locKey struct {
	loc *time.Location
	off int
}

func keyOf(tm time.Time) locKey {
	loc := tm.Location()
	if loc.String() == "" {
		_, off := tm.Zone()
		return locKey{off: off}
	}
	return locKey{loc: loc}
}

func newSymtab() symtab {
	return symtab{
		ids:    make(map[string]uint32),
		names:  []string{""},
		locIDs: map[locKey]uint32{{loc: time.UTC}: 0},
		locs:   []*time.Location{time.UTC},
	}
}

// intern sets rw's symbol ids and location index for r, adding any the
// table does not know yet.
func (t *symtab) intern(r *Record, rw *row) {
	t.mu.RLock()
	var ok [5]bool
	rw.actor, ok[0] = t.id(r.Actor)
	rw.action, ok[1] = t.id(r.Action)
	rw.flow, ok[2] = t.id(r.FlowID)
	rw.outcome, ok[3] = t.id(r.Outcome)
	rw.loc, ok[4] = t.locIDs[keyOf(r.Time)]
	t.mu.RUnlock()
	if ok == [5]bool{true, true, true, true, true} {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rw.actor, rw.action, rw.flow, rw.outcome = t.add(r.Actor), t.add(r.Action), t.add(r.FlowID), t.add(r.Outcome)
	rw.loc = t.addLoc(r.Time)
}

// id returns name's id and whether it is known; the caller holds t.mu.
func (t *symtab) id(name string) (uint32, bool) {
	if name == "" {
		return 0, true
	}
	id, ok := t.ids[name]
	return id, ok
}

// add returns name's id, interning it if new; the caller holds t.mu for
// writing.
func (t *symtab) add(name string) uint32 {
	if id, ok := t.id(name); ok {
		return id
	}
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// addLoc returns the index of tm's location, adding it if new; the
// caller holds t.mu for writing.
func (t *symtab) addLoc(tm time.Time) uint32 {
	k := keyOf(tm)
	if id, ok := t.locIDs[k]; ok {
		return id
	}
	id := uint32(len(t.locs))
	t.locs = append(t.locs, tm.Location())
	t.locIDs[k] = id
	return id
}

// matcher resolves f against the table. Ids only grow and a name never
// changes, so the snapshots it keeps stay valid after t.mu is released;
// the caller holds the store lock, so every id in the index is in them.
func (t *symtab) matcher(f Filter) matcher {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m := matcher{f: f, names: t.names, locs: t.locs}
	var ok [4]bool
	m.actor, ok[0] = t.id(f.Actor)
	m.action, ok[1] = t.id(f.Action)
	m.flow, ok[2] = t.id(f.FlowID)
	m.outcome, ok[3] = t.id(f.Outcome)
	m.none = ok != [4]bool{true, true, true, true}
	return m
}
