package provenance

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"datagridflow/internal/sim"
)

func rec(action, flow string, at time.Time) Record {
	return Record{Time: at, Actor: "user", Action: action, FlowID: flow, Target: "/grid/x"}
}

func TestAppendAndSeq(t *testing.T) {
	s := NewMemory()
	for i := 1; i <= 5; i++ {
		seq, err := s.Append(rec("op", "f1", sim.Epoch))
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Errorf("seq = %d, want %d", seq, i)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	// Default outcome is ok.
	rs := s.Query(Filter{Outcome: OutcomeOK})
	if len(rs) != 5 {
		t.Errorf("default outcome records = %d", len(rs))
	}
}

func TestQueryFilters(t *testing.T) {
	s := NewMemory()
	t0 := sim.Epoch
	appendOK := func(r Record) {
		t.Helper()
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	appendOK(Record{Time: t0, Actor: "alice", Action: "ingest", Target: "/grid/a/1", FlowID: "f1"})
	appendOK(Record{Time: t0.Add(time.Minute), Actor: "bob", Action: "replicate", Target: "/grid/a/1", FlowID: "f1", StepID: "s2"})
	appendOK(Record{Time: t0.Add(2 * time.Minute), Actor: "alice", Action: "step.start", Target: "/grid/b/2", FlowID: "f2", Outcome: OutcomeOK})
	appendOK(Record{Time: t0.Add(3 * time.Minute), Actor: "alice", Action: "step.finish", Target: "/grid/b/2", FlowID: "f2", Outcome: OutcomeError, Err: "boom"})

	if got := s.Query(Filter{FlowID: "f1"}); len(got) != 2 {
		t.Errorf("FlowID filter: %d", len(got))
	}
	if got := s.Query(Filter{Actor: "bob"}); len(got) != 1 || got[0].Action != "replicate" {
		t.Errorf("Actor filter: %v", got)
	}
	if got := s.Query(Filter{Action: "ingest"}); len(got) != 1 {
		t.Errorf("Action filter: %d", len(got))
	}
	if got := s.Query(Filter{ActionPrefix: "step."}); len(got) != 2 {
		t.Errorf("ActionPrefix filter: %d", len(got))
	}
	if got := s.Query(Filter{TargetPrefix: "/grid/a"}); len(got) != 2 {
		t.Errorf("TargetPrefix filter: %d", len(got))
	}
	if got := s.Query(Filter{Outcome: OutcomeError}); len(got) != 1 || got[0].Err != "boom" {
		t.Errorf("Outcome filter: %v", got)
	}
	if got := s.Query(Filter{Since: t0.Add(time.Minute), Until: t0.Add(3 * time.Minute)}); len(got) != 2 {
		t.Errorf("time window: %d", len(got))
	}
	if got := s.Query(Filter{Limit: 2}); len(got) != 2 {
		t.Errorf("limit: %d", len(got))
	}
	if got := s.Query(Filter{StepID: "s2"}); len(got) != 1 {
		t.Errorf("StepID filter: %d", len(got))
	}
	if n := s.Count(Filter{FlowID: "f2"}); n != 2 {
		t.Errorf("Count = %d", n)
	}
	last, ok := s.Last(Filter{FlowID: "f2"})
	if !ok || last.Action != "step.finish" {
		t.Errorf("Last = %+v, %v", last, ok)
	}
	if _, ok := s.Last(Filter{FlowID: "zzz"}); ok {
		t.Errorf("Last on empty match should report false")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append(Record{
			Time: sim.Epoch.Add(time.Duration(i) * time.Hour), Action: "archive",
			FlowID: "ilm-2005", Target: fmt.Sprintf("/grid/obj%d", i),
			Detail: map[string]string{"bytes": "1024"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Action: "late"}); err != ErrClosed {
		t.Errorf("append after close: %v", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Errorf("flush after close: %v", err)
	}
	// "Years later": a new process opens the same log and audits the flow.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reloaded %d records, want 10", s2.Len())
	}
	got := s2.Query(Filter{FlowID: "ilm-2005", TargetPrefix: "/grid/obj"})
	if len(got) != 10 || got[0].Detail["bytes"] != "1024" {
		t.Errorf("reloaded query: %d records", len(got))
	}
	// Sequence numbering continues after reload.
	seq, err := s2.Append(Record{Action: "post-reload"})
	if err != nil || seq != 11 {
		t.Errorf("post-reload seq = %d, %v", seq, err)
	}
	// Double close is fine.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOpenCorruptLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Errorf("corrupt log accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "nodir", "x.jsonl")); err == nil {
		t.Errorf("unopenable path accepted")
	}
}

func TestFlushMemoryStore(t *testing.T) {
	s := NewMemory()
	if err := s.Flush(); err != nil {
		t.Errorf("Flush on memory store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on memory store: %v", err)
	}
	// Reads still work after close.
	if s.Len() != 0 {
		t.Errorf("Len after close")
	}
}

func TestConcurrentAppend(t *testing.T) {
	s := NewMemory()
	var wg sync.WaitGroup
	const n, per = 8, 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := s.Append(rec("op", "f", sim.Epoch)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != n*per {
		t.Fatalf("Len = %d, want %d", s.Len(), n*per)
	}
	// All sequence numbers unique and dense.
	seen := make(map[int64]bool)
	for _, r := range s.Query(Filter{}) {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
	for i := int64(1); i <= n*per; i++ {
		if !seen[i] {
			t.Fatalf("missing seq %d", i)
		}
	}
}

// Property: Query(Filter{}) returns records in strictly increasing seq
// order regardless of append interleavings, and Count agrees with Query.
func TestQuickOrdering(t *testing.T) {
	f := func(actions []uint8) bool {
		s := NewMemory()
		for _, a := range actions {
			if _, err := s.Append(Record{Action: fmt.Sprintf("a%d", a%4), Time: sim.Epoch}); err != nil {
				return false
			}
		}
		all := s.Query(Filter{})
		for i := 1; i < len(all); i++ {
			if all[i].Seq <= all[i-1].Seq {
				return false
			}
		}
		return s.Count(Filter{Action: "a1"}) == len(s.Query(Filter{Action: "a1"}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppendMemory(b *testing.B) {
	s := NewMemory()
	r := rec("op", "f", sim.Epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryLargeLog(b *testing.B) {
	s := NewMemory()
	for i := 0; i < 100000; i++ {
		if _, err := s.Append(Record{Action: "op", FlowID: fmt.Sprintf("f%d", i%100), Time: sim.Epoch}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := s.Query(Filter{FlowID: "f42"}); len(got) != 1000 {
			b.Fatalf("got %d", len(got))
		}
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := s.Append(rec("op", "f1", sim.Epoch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// A process killed mid-write leaves half a record and no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":6,"time":"2005-01-0`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	if s2.Len() != n {
		t.Fatalf("Len = %d, want %d", s2.Len(), n)
	}
	seq, err := s2.Append(rec("after", "f1", sim.Epoch))
	if err != nil || seq != n+1 {
		t.Fatalf("next seq = %d, %v; want %d", seq, err, n+1)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if last, ok := s3.Last(Filter{}); s3.Len() != n+1 || !ok || last.Seq != n+1 || last.Action != "after" {
		t.Fatalf("after second reopen: Len = %d, last = %+v", s3.Len(), last)
	}
}

func TestFileLineIsMarshalledRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Time: sim.Epoch.Add(time.Hour), Actor: "alice", Action: "ingest", Target: "/grid/a",
		FlowID: "f1", StepID: "s1", Err: "x", Detail: map[string]string{"bytes": "1024"}}
	for i := 0; i < 12; i++ {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, got := range s.Query(Filter{}) {
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("file:\n%s\nwant json.Marshal of each record:\n%s", data, want)
	}
}

func TestOpenKeepsUnterminatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	log := `{"seq":1,"time":"2005-01-01T00:00:00Z","action":"a","outcome":"ok"}` + "\n" +
		`{"seq":2,"time":"2005-01-01T00:00:00+05:30","action":"b","outcome":"ok"}`
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if seq, err := s.Append(Record{Action: "c"}); err != nil || seq != 3 {
		t.Fatalf("next seq = %d, %v", seq, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := s2.Query(Filter{})
	if len(got) != 3 || got[1].Action != "b" || got[2].Action != "c" {
		t.Fatalf("reloaded %+v", got)
	}
	if _, off := got[1].Time.Zone(); off != 5*3600+1800 || !got[1].Time.Equal(time.Date(2004, 12, 31, 18, 30, 0, 0, time.UTC)) {
		t.Errorf("time = %v", got[1].Time)
	}
}

func TestOpenSharesUnnamedFixedZones(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	var log []byte
	for i := 0; i < 50; i++ {
		log = fmt.Appendf(log, `{"seq":%d,"time":"2005-01-01T00:00:%02d+05:30","action":"a","outcome":"ok"}`+"\n", i+1, i)
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(s.syms.locs); n != 2 {
		t.Errorf("location table holds %d entries, want UTC plus one +05:30 zone", n)
	}
	got := s.Query(Filter{})
	for i, r := range got {
		if r.Time.Second() != i {
			t.Fatalf("record %d time %v", i, r.Time)
		}
	}
}

func TestReadsAllocateOnlyForResults(t *testing.T) {
	s := NewMemory()
	for i := 0; i < 1000; i++ {
		if _, err := s.Append(Record{Time: sim.Epoch.Add(time.Duration(i) * time.Second), Action: fmt.Sprintf("a%d", i%10),
			FlowID: fmt.Sprintf("f%d", i%7), Target: "/grid/x", StepID: "s", Detail: map[string]string{"k": "v"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []Filter{
		{Action: "a3"},
		{FlowID: "f6", TargetPrefix: "/grid"},
		{ActionPrefix: "a", StepID: "s", Since: sim.Epoch.Add(time.Minute), Until: sim.Epoch.Add(time.Hour)},
	} {
		if n := testing.AllocsPerRun(10, func() { _ = s.Count(f) }); n != 0 {
			t.Errorf("Count(%+v) allocates %v times", f, n)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = s.Query(Filter{Action: "a3", TargetPrefix: "/elsewhere"}) }); n != 0 {
		t.Errorf("Query matching nothing allocates %v times", n)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestAppendFailureLeavesNoRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Append(rec("op", "f1", sim.Epoch)); err != nil {
			t.Fatal(err)
		}
	}
	// A time json.Marshal cannot encode.
	if _, err := s.Append(rec("bad", "f1", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))); err == nil {
		t.Fatal("unencodable record accepted")
	}
	if s.Len() != 3 || s.Count(Filter{Action: "bad"}) != 0 {
		t.Fatalf("after marshal failure: Len = %d", s.Len())
	}
	// A file write that fails.
	good := s.w
	s.w = bufio.NewWriterSize(failWriter{}, 16)
	if _, err := s.Append(rec("lost", "f1", sim.Epoch)); err == nil {
		t.Fatal("failed write reported success")
	}
	if s.Len() != 3 || s.Count(Filter{Action: "lost"}) != 0 {
		t.Fatalf("after write failure: Len = %d", s.Len())
	}
	s.w = good
	if seq, err := s.Append(rec("op", "f1", sim.Epoch)); err != nil || seq != 4 {
		t.Fatalf("next seq = %d, %v; want 4", seq, err)
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s := NewMemory()
	const writers, per = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r := Record{Time: sim.Epoch.Add(time.Duration(j) * time.Second), Actor: fmt.Sprintf("u%d", w),
					Action: fmt.Sprintf("a%d", j%5), FlowID: fmt.Sprintf("f%d", j%7), Target: "/grid/x",
					Detail: map[string]string{"j": fmt.Sprint(j)}}
				if _, err := s.Append(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastSeq int64
			prevCount := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				rs := s.Query(Filter{FlowID: "f3", TargetPrefix: "/grid"})
				for k := 1; k < len(rs); k++ {
					if rs[k].Seq <= rs[k-1].Seq || rs[k].FlowID != "f3" {
						t.Errorf("query out of order or unfiltered: %+v", rs[k])
						return
					}
				}
				if n := s.Count(Filter{Action: "a2"}); n < prevCount {
					t.Errorf("count went from %d to %d", prevCount, n)
					return
				} else {
					prevCount = n
				}
				if r, ok := s.Last(Filter{}); ok {
					if r.Seq < lastSeq {
						t.Errorf("last seq went from %d to %d", lastSeq, r.Seq)
						return
					}
					lastSeq = r.Seq
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if s.Len() != writers*per || s.Count(Filter{Action: "a2"}) != writers*per/5 {
		t.Fatalf("Len = %d, a2 count = %d", s.Len(), s.Count(Filter{Action: "a2"}))
	}
}

// FuzzRecordRoundTrip checks that a stored record reads back with every
// field exactly as appended, and that each field filter finds it.
func FuzzRecordRoundTrip(f *testing.F) {
	large := bytes.Repeat([]byte("key\x00value\x00"), 2000)
	f.Add(int64(0), uint32(0), uint8(4), "", "", "", "", "", "", "", []byte(nil))
	f.Add(int64(1104537600), uint32(7), uint8(0), "alice", "ingest", "/grid/a", "dgf-1", "s1", "", "", []byte("k\x00v"))
	f.Add(int64(-1), uint32(999999999), uint8(2), "bob", "step.finish", "/grid/b", "f", "s", "error", "boom\xff", []byte{1})
	f.Add(int64(1<<40), uint32(5), uint8(3), "\x00", "\xff\xfe", "", "x", "", "skipped", "", large)
	f.Add(int64(42), uint32(1), uint8(1), "u", "a", "t", "f", "s", "ok", "e", []byte("a\x00b\x00c\x00d"))
	est := time.FixedZone("EST", -5*3600)
	ist := time.FixedZone("", 5*3600+1800)
	f.Fuzz(func(t *testing.T, sec int64, nsec uint32, zone uint8, actor, action, target, flow, step, outcome, errText string, detail []byte) {
		tm := time.Unix(sec, int64(nsec%1e9))
		switch zone % 5 {
		case 0:
			tm = tm.UTC()
		case 2:
			tm = tm.In(est)
		case 3:
			tm = tm.In(ist)
		case 4:
			tm = time.Time{}
		}
		want := Record{Time: tm, Actor: actor, Action: action, Target: target, FlowID: flow,
			StepID: step, Outcome: outcome, Err: errText}
		if len(detail) > 0 {
			want.Detail = map[string]string{}
			parts := bytes.Split(detail, []byte{0})
			for i := 0; i+1 < len(parts); i += 2 {
				want.Detail[string(parts[i])] = string(parts[i+1])
			}
		}
		s := NewMemory()
		seq, err := s.Append(want)
		if err != nil {
			t.Fatal(err)
		}
		want.Seq = seq
		if want.Outcome == "" {
			want.Outcome = OutcomeOK
		}
		got := s.Query(Filter{})
		if len(got) != 1 {
			t.Fatalf("Query returned %d records", len(got))
		}
		g := got[0]
		if g.Time != want.Time {
			t.Errorf("time %#v, want %#v", g.Time, want.Time)
		}
		if len(g.Detail) != len(want.Detail) {
			t.Errorf("detail %v, want %v", g.Detail, want.Detail)
		}
		for k, v := range want.Detail {
			if gv, ok := g.Detail[k]; !ok || gv != v {
				t.Errorf("detail[%q] = %q, want %q", k, gv, v)
			}
		}
		g.Time, g.Detail, want.Time, want.Detail = time.Time{}, nil, time.Time{}, nil
		if !reflect.DeepEqual(g, want) {
			t.Errorf("got %+v, want %+v", g, want)
		}
		for _, fl := range []Filter{{Actor: actor}, {Action: action}, {FlowID: flow}, {StepID: step},
			{Outcome: want.Outcome}, {TargetPrefix: target}, {ActionPrefix: action}, {Since: tm}} {
			if n := s.Count(fl); n != 1 {
				t.Errorf("Count(%+v) = %d, want 1", fl, n)
			}
		}
		if !tm.IsZero() && s.Count(Filter{Until: tm}) != 0 {
			t.Errorf("Until is not exclusive")
		}
	})
}

// FuzzOpen checks that any log bytes give either a store or an error, and
// that a store Open accepts takes an append and reopens with it.
func FuzzOpen(f *testing.F) {
	valid := `{"seq":1,"time":"2005-01-01T00:00:00Z","action":"a","flow_id":"f","outcome":"ok","detail":{"k":"v"}}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(valid))
	f.Add([]byte(valid + valid[:30]))
	f.Add([]byte(valid + strings.TrimSuffix(valid, "\n")))
	f.Add([]byte("{not json\n"))
	f.Add([]byte("\n \r\n" + valid + "null\n{}"))
	f.Add([]byte(`{"seq":9223372036854775807,"time":"0001-01-01T00:00:00-00:01","action":""}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "prov.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			return
		}
		n := s.Len()
		_ = s.Query(Filter{ActionPrefix: "a", TargetPrefix: "/", StepID: "s"})
		seq, err := s.Append(Record{Action: "fuzz"})
		if err != nil {
			t.Fatalf("append to opened log: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer s2.Close()
		if last, ok := s2.Last(Filter{}); s2.Len() != n+1 || !ok || last.Seq != seq || last.Action != "fuzz" {
			t.Fatalf("reopened Len = %d (want %d), last = %+v (want seq %d)", s2.Len(), n+1, last, seq)
		}
	})
}

func BenchmarkAppendParallel(b *testing.B) {
	s := NewMemory()
	r := rec("op", "f", sim.Epoch)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Append(r); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkCountAction(b *testing.B) {
	s := NewMemory()
	for i := 0; i < 100000; i++ {
		if _, err := s.Append(Record{Action: fmt.Sprintf("op%d", i%10), FlowID: fmt.Sprintf("f%d", i%100),
			Target: "/grid/x", Time: sim.Epoch}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := s.Count(Filter{Action: "op7"}); n != 10000 {
			b.Fatalf("got %d", n)
		}
	}
}
