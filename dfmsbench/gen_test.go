package main

import (
	"bytes"
	"fmt"
	"testing"

	"datagridflow/internal/dgl"
)

// stream renders the first n generated inputs of every workload for one
// seed: the ILM flows, and the submit-status pool flows and arrival
// schedule with the requests it sends.
func stream(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	write := func(req *dgl.Request) {
		data, err := dgl.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	for i := 1; i <= n; i++ {
		write(ilmFlow(seed, streamILM, "ilm", "run", i, ilmObjects, false).req)
		write(ilmFlow(seed, streamPool, tenantName(i%ssTenants), "pool0", i, ssPoolObjects, true).req)
	}
	for i, a := range arrivals(seed, float64(n)/ssRate, ssRate, ssStatusShare, ssTenants, ssPool, ssObjects) {
		fmt.Fprintf(&buf, "%+v\n", a)
		if !a.status {
			write(tagRequest(a, fmt.Sprintf("tag-%d", i)))
		}
	}
	return buf.Bytes()
}

func TestSeedGivesTheSameRequestStream(t *testing.T) {
	a, b := stream(t, 7, 200), stream(t, 7, 200)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated two different request streams")
	}
	if c := stream(t, 8, 200); bytes.Equal(a, c) {
		t.Fatal("two seeds generated the same request stream")
	}
}

func TestGeneratedFlowsHaveTheirStepCounts(t *testing.T) {
	for _, tc := range []struct {
		req  *dgl.Request
		want int
	}{
		{ilmFlow(1, streamILM, "ilm", "run", 1, ilmObjects, false).req, 1 + ilmObjects + 3},
		{ilmFlow(1, streamPool, "tenant0", "pool0", 1, ssPoolObjects, true).req, 1 + ssPoolObjects + 4},
	} {
		if err := dgl.ValidateFlow(tc.req.Flow, nil); err != nil {
			t.Fatalf("%s: %v", tc.req.Flow.Name, err)
		}
		if got := tc.req.Flow.CountSteps(); got != tc.want {
			t.Errorf("%s: %d static steps, want %d", tc.req.Flow.Name, got, tc.want)
		}
	}
}

func TestWindowQuantile(t *testing.T) {
	// Four windows whose p99s are 989, 1978, 2967 and 3956: the lowest
	// and the highest are dropped.
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64((i % 1000) * (i/1000 + 1))
	}
	got, windows := windowQuantile(xs, 0.99, 1000)
	if windows != 4 || got != (1978+2967)/2.0 {
		t.Fatalf("windowQuantile = %v over %d windows, want %v over 4", got, windows, (1978+2967)/2.0)
	}
	if got, windows := windowQuantile(xs[:1000], 0.5, 1000); windows != 1 || got != 499 {
		t.Fatalf("one window: %v over %d windows, want the plain median 499", got, windows)
	}
}
