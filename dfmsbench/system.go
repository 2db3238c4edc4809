package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// newGrid builds a grid like every workload's: the default virtual
// clock (simulated transfer and checksum time costs no wall time), a
// disk in domain "site", an archive in domain "vault", and /grid open
// for writing as in matrixd's demo mode.
func newGrid(reg *obs.Registry) (*dgms.Grid, error) {
	g := dgms.New(dgms.Options{Obs: reg})
	for _, r := range []*vfs.Resource{
		vfs.New(resDisk, "site", vfs.Disk, 0),
		vfs.New(resArchive, "vault", vfs.Archive, 0),
	} {
		if err := g.RegisterResource(r); err != nil {
			return nil, err
		}
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		return nil, err
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		return nil, err
	}
	return g, nil
}

// dial connects to addr and negotiates the current protocol (mux,
// binary codec), presenting token when it is not empty.
func dial(addr, token string) (*wire.Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if token != "" {
		c.SetToken(token)
	}
	if _, err := c.Hello(); err != nil {
		c.Close()
		return nil, err
	}
	if !c.Muxed() || !c.Binary() {
		c.Close()
		return nil, errors.New("session did not negotiate mux framing and the binary codec")
	}
	return c, nil
}

// latency is one completed operation: when it ended and how long it took.
type latency struct {
	end time.Time
	ms  float64
}

// inOrder returns the latencies in completion order.
func inOrder(parts ...[]latency) []float64 {
	var all []latency
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end.Before(all[j].end) })
	out := make([]float64, len(all))
	for i, l := range all {
		out[i] = l.ms
	}
	return out
}

// loadResult is what a closed loop measured.
type loadResult struct {
	attempted, failed int64
	elapsed           time.Duration
	cpu               time.Duration
}

// errDone ends a closed-loop worker without counting an operation.
var errDone = errors.New("done")

// closedLoop runs workers goroutines that each call op back to back
// until the window closes. op returns an error for a failed or refused
// operation, and the worker stops after one, so a broken session cannot
// spin; op returns errDone to end its worker.
func closedLoop(workers int, window time.Duration, op func(w int) error) loadResult {
	var attempted, failed atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				err := op(w)
				if errors.Is(err, errDone) {
					return
				}
				attempted.Add(1)
				if err != nil {
					failed.Add(1)
					fmt.Printf("worker %d: %v\n", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return loadResult{attempted: attempted.Load(), failed: failed.Load(), elapsed: time.Since(start), cpu: cpuTime() - cpu0}
}

// timings collects latencies per closed-loop worker, without locks.
type timings [][]latency

// add records the operation worker w ran from t0 to t1.
func (t timings) add(w int, t0, t1 time.Time) {
	t[w] = append(t[w], latency{t1, float64(t1.Sub(t0).Nanoseconds()) / 1e6})
}

// ordered returns every latency in completion order.
func (t timings) ordered() []float64 { return inOrder(t...) }

// queryStatus asks c for the detailed status of id and checks the tree.
func queryStatus(c *wire.Client, user, id string, minSteps int) error {
	st, err := c.Status(user, id, true)
	if err != nil {
		return err
	}
	return checkTree(st, id, minSteps)
}

// countSteps counts the step nodes of a status tree and how many of them
// succeeded.
func countSteps(st *dgl.FlowStatus) (steps, ok int) {
	if st.Kind == "step" {
		steps++
		if st.State == "succeeded" {
			ok++
		}
	}
	for i := range st.Children {
		s, o := countSteps(&st.Children[i])
		steps += s
		ok += o
	}
	return steps, ok
}

// checkTree verifies a terminal status tree: the flow id, a succeeded
// root and at least minSteps steps, all succeeded.
func checkTree(st *dgl.FlowStatus, id string, minSteps int) error {
	if st == nil {
		return errors.New("no status tree")
	}
	if id != "" && st.ID != id {
		return fmt.Errorf("status names %q, want %q", st.ID, id)
	}
	if st.State != "succeeded" {
		return fmt.Errorf("flow %s is %s: %s", st.ID, st.State, st.Error)
	}
	steps, ok := countSteps(st)
	if steps < minSteps || ok != steps {
		return fmt.Errorf("flow %s: %d of %d steps succeeded, want %d", st.ID, ok, steps, minSteps)
	}
	return nil
}

// execID returns the execution id of a status tree root id
// ("peer0:dgf-000042/flowname" names execution "peer0:dgf-000042").
func execID(statusID string) string {
	id, _, _ := strings.Cut(statusID, "/")
	return id
}

// collect starts a measured window from a collected heap, so
// collection cycles fall at the same points of the load in every run.
func collect() { runtime.GC() }

// maxOutstanding bounds open-loop arrivals in flight; the generator
// blocks (and runs late) beyond it.
const maxOutstanding = 1024

// openResult is what an open loop measured, indexed by arrival.
type openResult struct {
	ok   []bool
	lats []latency // from the scheduled send time; zero when !ok[i]
	late []float64 // ms each send ran behind its schedule
	errs []error
}

// openLoop sends arrival i at start + at[i] seconds, each from its own
// goroutine, and times it from its scheduled send time, so a stall also
// charges the arrivals queued behind it.
func openLoop(start time.Time, at []float64, issue func(i int) error) openResult {
	n := len(at)
	r := openResult{ok: make([]bool, n), lats: make([]latency, n), late: make([]float64, n), errs: make([]error, n)}
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	for i := range at {
		due := start.Add(time.Duration(at[i] * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		r.late[i] = float64(time.Since(due).Nanoseconds()) / 1e6
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := issue(i); err != nil {
				r.errs[i] = err
				return
			}
			end := time.Now()
			r.ok[i], r.lats[i] = true, latency{end, float64(end.Sub(due).Nanoseconds()) / 1e6}
		}(i, due)
	}
	wg.Wait()
	return r
}

// completed returns the latencies of the arrivals keep selects that
// succeeded, in completion order.
func (r openResult) completed(keep func(i int) bool) []float64 {
	var ls []latency
	for i, ok := range r.ok {
		if ok && keep(i) {
			ls = append(ls, r.lats[i])
		}
	}
	return inOrder(ls)
}

// failures counts the failed arrivals and reports the first few.
func (r openResult) failures(out *outcome) int64 {
	var n int64
	for i, err := range r.errs {
		if err != nil {
			n++
			out.fail("arrival %d: %v", i, err)
		}
	}
	return n
}

// setups is the number of set-ups per run; setup_s is their median.
const setups = 5

// setupRounds builds the system rounds times, closes all but the last,
// and returns the last with the median set-up time in seconds. Several
// set-ups per run make setup_s a median, not one noisy sample.
func setupRounds[S any](rounds int, build func(round int) (S, error), closeFn func(S)) (S, float64, error) {
	var sys S
	times := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		if r > 0 {
			closeFn(sys)
		}
		t0 := time.Now()
		s, err := build(r)
		if err != nil {
			var zero S
			return zero, 0, fmt.Errorf("set-up round %d: %w", r, err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	return sys, median(times), nil
}

// submitCtx is the context of every benchmark call: generous, so a hang
// fails the run instead of blocking it.
func submitCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}

// sampleQueueDepth samples the wire_queue_depth gauges of regs every
// 5 ms until stop closes, and returns the mean depth.
func sampleQueueDepth(regs []*obs.Registry, stop <-chan struct{}) func() float64 {
	var sum, n int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, r := range regs {
					sum += r.Gauge("wire_queue_depth").Value()
				}
				n++
			}
		}
	}()
	return func() float64 {
		<-done
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
}

// p99Window is the sample count of one p99 window: ten samples lie
// beyond each window's p99.
const p99Window = 1000

// flowMetrics fills the end-to-end metrics of a measured window: flow
// and status latencies in completion order, the window's wall and CPU
// time, completed flows and completed client operations.
func flowMetrics(out *outcome, lats []float64, elapsed, cpu time.Duration, flows, ops int64, status []float64) {
	out.metrics["flows_per_s"] = float64(flows) / elapsed.Seconds()
	out.metrics["flow_p50_ms"] = median(append([]float64(nil), lats...))
	p99, windows := windowQuantile(lats, 0.99, p99Window)
	out.metrics["flow_p99_ms"] = p99
	out.samples["flow_p50_ms"] = len(lats)
	out.samples["flow_p99_ms"] = len(lats)
	out.info["flow_p99_windows"] = windows
	out.metrics["status_p50_ms"] = median(append([]float64(nil), status...))
	sp99, swin := windowQuantile(status, 0.99, p99Window)
	out.metrics["status_p99_ms"] = sp99
	out.samples["status_p50_ms"] = len(status)
	out.samples["status_p99_ms"] = len(status)
	out.info["status_p99_windows"] = swin
	out.metrics["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(ops)
}
