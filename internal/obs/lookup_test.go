package obs

import (
	"testing"
)

// TestLabelValuesCannotCollide pins the canonical key: a label value
// holding the separators of a naive "name|k=v" encoding must not alias a
// series with more label pairs.
func TestLabelValuesCannotCollide(t *testing.T) {
	r := NewRegistry()
	cases := [][2][]string{
		{{"a", "b|c=d"}, {"a", "b", "c", "d"}},
		{{"a|b", "c"}, {"a", "", "b", "c"}},
		{{"a", "b\x00c"}, {"a", "b", "c", ""}},
		{{}, {"", ""}},
	}
	for _, c := range cases {
		x, y := r.Counter("m", c[0]...), r.Counter("m", c[1]...)
		if x == y {
			t.Errorf("Counter(m, %q) and Counter(m, %q) share a series", c[0], c[1])
		}
	}
	if r.Counter("m|a=b") == r.Counter("m", "a", "b") {
		t.Errorf("a name holding a separator aliases a labelled series")
	}
	// An odd trailing label is the same series as an empty value, on the
	// short lookup path and off it.
	if r.Counter("m", "k") != r.Counter("m", "k", "") {
		t.Errorf("Counter(m, k) and Counter(m, k, \"\") differ")
	}
	if r.Counter("m", "a", "1", "k") != r.Counter("m", "k", "", "a", "1") {
		t.Errorf("odd trailing label differs from an empty value")
	}
	// A series created through the long form is found by the short one.
	long := r.Gauge("g", "k", "1", "k", "2")
	if r.Gauge("g", "k", "2") != long {
		t.Errorf("duplicate-label series not found by its one-pair form")
	}
}

func TestSnapshotOrdersByNameThenLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "op", "sleep")
	r.Counter("ops_total_x")
	r.Counter("ops_total", "op", "ingest")
	r.Counter("ops_total")
	r.Counter("ops_total", "op", "replicate")
	var got []string
	for _, p := range r.Snapshot().Counters {
		got = append(got, p.Name+"/"+p.Labels["op"])
	}
	want := []string{"ops_total/", "ops_total/ingest", "ops_total/replicate", "ops_total/sleep", "ops_total_x/"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestExistingSeriesLookupAllocatesNothing pins the emission cost the
// engine pays per step: finding a series that exists costs no
// allocation with no labels or with one pair.
func TestExistingSeriesLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	lookups := map[string]func(){
		"counter":            func() { r.Counter("c_total").Inc() },
		"counter/labelled":   func() { r.Counter("c_total", "op", "ingest").Inc() },
		"gauge/labelled":     func() { r.Gauge("g", "peer", "p1").Add(1) },
		"histogram":          func() { r.Histogram("h_seconds").Observe(0.5) },
		"histogram/labelled": func() { r.Histogram("h_seconds", "op", "ingest").Observe(0.5) },
		"now":                func() { _ = r.Now() },
	}
	for name, f := range lookups {
		f() // create
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per existing-series call, want 0", name, n)
		}
	}
}

func BenchmarkRegistryCounterLabelled(b *testing.B) {
	r := NewRegistry()
	r.Counter("matrix_steps_total", "op", "ingest")
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Counter("matrix_steps_total", "op", "ingest").Inc()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r.Counter("matrix_steps_total", "op", "ingest").Inc()
			}
		})
	})
}
