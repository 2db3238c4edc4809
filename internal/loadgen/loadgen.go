// Package loadgen is the wire-protocol load harness behind
// `dgfbench -load`: it stands up an in-process matrix server on a real
// TCP socket and measures DGL request throughput and latency across
// the protocol's transfer modes — serial (one request in flight per
// connection), pipelined (many requests in flight on each multiplexed
// connection) and batch (N flows per frame) — plus an open-loop phase
// that paces requests at a target rate and reports the latency
// distribution.
//
// The workload is a synchronous flow whose single step sleeps for
// Options.StepLatency on a real clock, standing in for the
// long-running grid operations of the paper (a replication, a
// third-party transfer): the response returns only when the flow
// completes, so server-side latency is visible to the client. Serial
// throughput is then bounded by one latency per round trip while the
// pipelined session overlaps Inflight of them — the speedup ratio
// measures latency hiding, which is what the multiplexed protocol
// exists for, and is stable across machines with different core
// counts (a single-core CI runner shows the same ratio as a laptop).
// docs/BENCH.md records the schema and the gating rationale.
package loadgen

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/federation"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/sim"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// Options sizes a load run. The zero value is not runnable; use
// Defaults or SmallDefaults as a starting point.
type Options struct {
	// Small marks the CI-sized preset in the report.
	Small bool
	// Duration is the measuring window of each closed-loop phase.
	Duration time.Duration
	// Conns is the number of client connections per phase.
	Conns int
	// Inflight is the number of concurrent requests per connection in
	// the pipelined phase.
	Inflight int
	// BatchSize is the number of flows per batch frame.
	BatchSize int
	// TargetRPS paces the open-loop phase; 0 skips it.
	TargetRPS int
	// StepLatency is the simulated grid-operation latency each flow
	// sleeps for, on a real clock.
	StepLatency time.Duration
	// MaxInflight caps the server worker pool (0 = server default).
	MaxInflight int
	// FederatedPeers adds an optional federated phase: a lookup server
	// plus this many federated peers, with the workload's parallel
	// subflows delegated from the first peer (docs/FEDERATION.md). 0 (the
	// default) skips the phase, leaving the BENCH_wire.json schema
	// unchanged.
	FederatedPeers int
	// ShardedPeers adds an optional sharded any-peer phase: a shard-lease
	// lookup plus this many sharded peers, with sync sleep flows
	// submitted to every peer and routed to their shard owners
	// (docs/FEDERATION.md, "Sharded ownership"). 0 (the default) skips
	// the phase.
	ShardedPeers int
}

// Defaults is the full-scale preset.
func Defaults() Options {
	return Options{
		Duration:    2 * time.Second,
		Conns:       2,
		Inflight:    16,
		BatchSize:   32,
		TargetRPS:   500,
		StepLatency: 4 * time.Millisecond,
		MaxInflight: 128,
	}
}

// SmallDefaults is the CI-sized preset (sub-second phases).
func SmallDefaults() Options {
	return Options{
		Small:       true,
		Duration:    400 * time.Millisecond,
		Conns:       1,
		Inflight:    8,
		BatchSize:   16,
		TargetRPS:   200,
		StepLatency: 2 * time.Millisecond,
		MaxInflight: 128,
	}
}

// ModeResult is one phase's measurement.
type ModeResult struct {
	Mode     string  `json:"mode"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Seconds  float64 `json:"seconds"`
	RPS      float64 `json:"rps"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
}

// Report is the artifact `dgfbench -load` writes as BENCH_wire.json.
// Ratios, not absolute RPS, are the gated quantities: they compare two
// phases of the same run on the same machine, so they survive CI
// runners of wildly different speeds (docs/BENCH.md).
type Report struct {
	Small       bool   `json:"small"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	StepLatency string `json:"step_latency"`
	Conns       int    `json:"conns"`
	Inflight    int    `json:"inflight"`
	BatchSize   int    `json:"batch_size"`

	Serial      ModeResult `json:"serial"`
	Pipelined   ModeResult `json:"pipelined"`
	AsyncSerial ModeResult `json:"async_serial"`
	Batch       ModeResult `json:"batch"`
	// The codec phases submit a variable-heavy flow asynchronously and
	// in batches, so encode/decode cost dominates (docs/CODEC.md).
	AsyncCodecBin ModeResult  `json:"async_codec_bin"`
	BatchCodecBin ModeResult  `json:"batch_codec_bin"`
	OpenLoop      *ModeResult `json:"open_loop,omitempty"`
	// Federated is present only when Options.FederatedPeers >= 2.
	Federated      *ModeResult `json:"federated,omitempty"`
	FederatedPeers int         `json:"federated_peers,omitempty"`
	// Sharded is present only when Options.ShardedPeers >= 2.
	Sharded      *ModeResult `json:"sharded,omitempty"`
	ShardedPeers int         `json:"sharded_peers,omitempty"`

	// SpeedupPipelined is pipelined RPS over serial RPS: the latency-
	// hiding win of multiplexed framing. SpeedupBatch is batch flows/s
	// over async-serial flows/s: the framing-amortization win of the
	// batch verb.
	SpeedupPipelined float64 `json:"speedup_pipelined"`
	SpeedupBatch     float64 `json:"speedup_batch"`
}

// String renders the report as the human-readable table dgfbench
// prints before writing the JSON artifact.
func (r *Report) String() string {
	var b []byte
	line := func(m ModeResult) {
		b = fmt.Appendf(b, "%-12s %8d req %5d err %9.0f req/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms\n",
			m.Mode, m.Requests, m.Errors, m.RPS, m.P50ms, m.P95ms, m.P99ms)
	}
	b = fmt.Appendf(b, "== wire load (conns=%d inflight=%d batch=%d step=%s gomaxprocs=%d) ==\n",
		r.Conns, r.Inflight, r.BatchSize, r.StepLatency, r.GoMaxProcs)
	line(r.Serial)
	line(r.Pipelined)
	line(r.AsyncSerial)
	line(r.Batch)
	line(r.AsyncCodecBin)
	line(r.BatchCodecBin)
	if r.OpenLoop != nil {
		line(*r.OpenLoop)
	}
	if r.Federated != nil {
		line(*r.Federated)
	}
	if r.Sharded != nil {
		line(*r.Sharded)
	}
	b = fmt.Appendf(b, "speedup: pipelined/serial = %.2fx, batch/async-serial = %.2fx\n",
		r.SpeedupPipelined, r.SpeedupBatch)
	return string(b)
}

// harness is one in-process server plus the grid it runs on.
type harness struct {
	engine *matrix.Engine
	server *wire.Server
	addr   string
}

func newHarness(opts Options) (*harness, error) {
	// Real clock: the sleep step must consume wall time for server-side
	// latency to exist (the default virtual clock completes sleeps
	// instantly).
	g := dgms.New(dgms.Options{Clock: sim.RealClock{}})
	if err := g.RegisterResource(vfs.New("bench-disk", "local", vfs.Disk, 0)); err != nil {
		return nil, err
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		return nil, err
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		return nil, err
	}
	e := matrix.NewEngine(g)
	s := wire.NewServerConfig(e, wire.ServerConfig{MaxInflight: opts.MaxInflight})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &harness{engine: e, server: s, addr: addr}, nil
}

func (h *harness) close() { h.server.Close() }

// sleepFlow is the workload: one step of simulated grid latency.
func sleepFlow(d time.Duration) dgl.Flow {
	return dgl.NewFlow("load").
		Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": d.String()})).Flow()
}

// codecFlow is the codec-phase workload: a flow whose document is
// dominated by variables — realistic datagrid requests carry dataset
// paths, replica locations and transfer parameters as flow variables —
// so the phase measures request encode/decode cost, not step execution
// (the single step is a noop).
func codecFlow() dgl.Flow {
	b := dgl.NewFlow("codec-load")
	for i := 0; i < 8; i++ {
		// Few variables, large values: the engine's per-entry scope cost
		// stays flat (string headers are copied, not bytes) while the
		// text encodings pay escape-and-parse per byte — isolating the
		// codec's advantage on realistic replica-catalog payloads.
		locs := make([]byte, 0, 8<<10)
		for r := 0; r < 60; r++ {
			if r > 0 {
				locs = append(locs, ',')
			}
			locs = append(locs, fmt.Sprintf(
				"srb://replica-%02d.npaci.edu/home/collections/run-2026/partition-%02d/objects.dat?replica=%d&checksum=md5:%08x&verify=true",
				r, i, r, uint32(i*131+r))...)
		}
		b.Var(fmt.Sprintf("dataset.partition.%02d", i), string(locs))
	}
	return b.Step("op", dgl.Op(dgl.OpNoop, nil)).Flow()
}

// submitAsync submits flow asynchronously as the bench user, failing on
// a refused acknowledgement.
func submitAsync(c *wire.Client, flow dgl.Flow) error {
	res, err := c.Submit(context.Background(), dgl.NewRequest("bench", "", flow), wire.WithAsync())
	if err != nil {
		return err
	}
	return res.Err()
}

// batchLoop closed-loops batch submissions over the clients for one
// window, counting each batch item as a request.
func batchLoop(clients []*wire.Client, reqs []*dgl.Request, window time.Duration) (time.Duration, *collector) {
	col := &collector{}
	deadline := time.Now().Add(window)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *wire.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				res, err := c.Submit(context.Background(), nil, wire.WithBatch(reqs...), wire.WithUser("bench"))
				if err != nil {
					col.fail()
					return
				}
				per := time.Since(t0) / time.Duration(len(res.Responses))
				for range res.Responses {
					col.ok(per)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), col
}

// collector accumulates per-request latencies across workers.
type collector struct {
	mu        sync.Mutex
	latencies []time.Duration
	errors    int
}

func (c *collector) ok(d time.Duration) {
	c.mu.Lock()
	c.latencies = append(c.latencies, d)
	c.mu.Unlock()
}

func (c *collector) fail() {
	c.mu.Lock()
	c.errors++
	c.mu.Unlock()
}

func (c *collector) result(mode string, elapsed time.Duration) ModeResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.latencies, func(i, j int) bool { return c.latencies[i] < c.latencies[j] })
	pct := func(p float64) float64 {
		if len(c.latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(c.latencies)-1))
		return float64(c.latencies[i]) / float64(time.Millisecond)
	}
	return ModeResult{
		Mode:     mode,
		Requests: len(c.latencies),
		Errors:   c.errors,
		Seconds:  elapsed.Seconds(),
		RPS:      float64(len(c.latencies)) / elapsed.Seconds(),
		P50ms:    pct(0.50),
		P95ms:    pct(0.95),
		P99ms:    pct(0.99),
	}
}

// runFederated stands up a lookup server plus FederatedPeers federated
// peers, then closed-loops parallel sleep flows — 4 subflows of one
// sleep step each — against the first peer over a multiplexed
// connection. Each completed flow counts its 4 subflows as requests.
func runFederated(opts Options) (*ModeResult, error) {
	lookup := wire.NewLookupServer()
	lookupAddr, err := lookup.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lookup.Close()
	const subflows = 4
	var peers []*wire.Peer
	var feds []*federation.Federation
	defer func() {
		for _, f := range feds {
			f.Close()
		}
		for _, p := range peers {
			p.Close()
		}
	}()
	var firstAddr string
	for i := 0; i < opts.FederatedPeers; i++ {
		h, err := newHarness(opts)
		if err != nil {
			return nil, err
		}
		h.server.Close() // the peer brings its own listener
		name := fmt.Sprintf("bench%d", i)
		peer := wire.NewPeerConfig(name, h.engine, wire.ServerConfig{MaxInflight: opts.MaxInflight})
		addr, err := peer.Start("127.0.0.1:0", lookupAddr)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			firstAddr = addr
		}
		fed := federation.New(peer, federation.Config{
			Policy:            &scheduler.RoundRobin{},
			HeartbeatInterval: 100 * time.Millisecond,
		})
		fed.Start()
		peers = append(peers, peer)
		feds = append(feds, fed)
	}
	for range [2]int{} { // deterministic membership before measuring
		for _, f := range feds {
			f.Beat()
		}
	}
	b := dgl.NewFlow("fedload").Parallel()
	for i := 0; i < subflows; i++ {
		b.SubFlow(dgl.NewFlow(fmt.Sprintf("shard-%d", i)).
			Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": opts.StepLatency.String()})))
	}
	flow := b.Flow()
	clients, err := dialN(firstAddr, opts.Conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)
	elapsed, col := closedLoop(clients, opts.Inflight, opts.Duration, func(c *wire.Client) error {
		_, err := c.SubmitFlow("bench", flow)
		return err
	})
	// A request above is one flow of `subflows` subflows; rescale so RPS
	// counts subflows.
	col.mu.Lock()
	scaled := append([]time.Duration(nil), col.latencies...)
	for range [subflows - 1]int{} {
		scaled = append(scaled, col.latencies...)
	}
	col.latencies = scaled
	col.mu.Unlock()
	res := col.result(fmt.Sprintf("federated:%d", opts.FederatedPeers), elapsed)
	return &res, nil
}

// runSharded stands up a shard-lease lookup plus ShardedPeers sharded
// peers and closed-loops synchronous sleep flows against every peer at
// once: users rotate so the routing keys spread over the shard space,
// and each peer routes what it does not own to the owner (kind-5 route
// frames). RPS counts completed flows network-wide — the
// any-peer submit capacity of the sharded topology.
func runSharded(opts Options) (*ModeResult, error) {
	const shards = 32
	lookup := wire.NewLookupServer()
	lookup.SetShards(shards)
	lookupAddr, err := lookup.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lookup.Close()
	var peers []*wire.Peer
	var names []string
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()
	var clients []*wire.Client
	for i := 0; i < opts.ShardedPeers; i++ {
		h, err := newHarness(opts)
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		h.server.Close() // the peer brings its own listener
		name := fmt.Sprintf("bench%d", i)
		engine := h.engine
		peer := wire.NewPeerConfig(name, engine, wire.ServerConfig{MaxInflight: opts.MaxInflight})
		peer.EnableSharding(shard.NewManager(shard.Config{
			Self:   name,
			Shards: shards,
			Resident: func(id string) bool {
				_, ok := engine.Execution(id)
				return ok
			},
		}))
		addr, err := peer.Start("127.0.0.1:0", lookupAddr)
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		peers = append(peers, peer)
		names = append(names, name)
		cs, err := dialN(addr, opts.Conns)
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		clients = append(clients, cs...)
	}
	defer closeAll(clients)
	// Two rebalance rounds settle ring ownership deterministically: the
	// first releases what the ring moved away, the second claims it.
	for range [2]int{} {
		for _, p := range peers {
			p.RebalanceShards(names)
		}
	}
	flow := sleepFlow(opts.StepLatency)
	var seq atomic.Int64
	elapsed, col := closedLoop(clients, opts.Inflight, opts.Duration, func(c *wire.Client) error {
		// Rotating users spread the routing keys over the shard space, so
		// submissions fan out to every owner instead of one shard.
		req := dgl.NewRequest(fmt.Sprintf("bench%d", seq.Add(1)%64), "", flow)
		res, err := c.Submit(context.Background(), req)
		if err != nil {
			return err
		}
		return res.Err()
	})
	res := col.result(fmt.Sprintf("sharded:%d", opts.ShardedPeers), elapsed)
	return &res, nil
}

// dialN opens n connections and runs the hello exchange on each.
func dialN(addr string, n int) ([]*wire.Client, error) {
	clients := make([]*wire.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := wire.Dial(addr)
		if err == nil {
			_, err = c.Hello()
		}
		if err != nil {
			for _, prev := range clients {
				prev.Close()
			}
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeAll(clients []*wire.Client) {
	for _, c := range clients {
		c.Close()
	}
}

// closedLoop runs `workers` goroutines per client, each issuing
// requests back to back via issue until the window closes.
func closedLoop(clients []*wire.Client, workers int, window time.Duration,
	issue func(*wire.Client) error) (time.Duration, *collector) {
	col := &collector{}
	deadline := time.Now().Add(window)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(c *wire.Client) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					t0 := time.Now()
					if err := issue(c); err != nil {
						col.fail()
						return // a broken connection ends this worker
					}
					col.ok(time.Since(t0))
				}
			}(c)
		}
	}
	wg.Wait()
	return time.Since(start), col
}

// Run executes the load experiment and returns the report.
func Run(opts Options) (*Report, error) {
	if opts.Conns <= 0 || opts.Inflight <= 0 || opts.BatchSize <= 0 || opts.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: options must be positive (got %+v)", opts)
	}
	h, err := newHarness(opts)
	if err != nil {
		return nil, err
	}
	defer h.close()

	flow := sleepFlow(opts.StepLatency)
	syncReq := func(c *wire.Client) error {
		_, err := c.SubmitFlow("bench", flow)
		return err
	}
	asyncReq := func(c *wire.Client) error { return submitAsync(c, flow) }

	rep := &Report{
		Small:       opts.Small,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		StepLatency: opts.StepLatency.String(),
		Conns:       opts.Conns,
		Inflight:    opts.Inflight,
		BatchSize:   opts.BatchSize,
	}

	// Phase 1 — serial: one request in flight per connection.
	serialClients, err := dialN(h.addr, opts.Conns)
	if err != nil {
		return nil, err
	}
	elapsed, col := closedLoop(serialClients, 1, opts.Duration, syncReq)
	closeAll(serialClients)
	rep.Serial = col.result("serial", elapsed)
	h.engine.Prune(0)

	// Phase 2 — pipelined: same connection count, Inflight concurrent
	// requests per connection.
	muxClients, err := dialN(h.addr, opts.Conns)
	if err != nil {
		return nil, err
	}
	elapsed, col = closedLoop(muxClients, opts.Inflight, opts.Duration, syncReq)
	rep.Pipelined = col.result("pipelined", elapsed)
	h.engine.Prune(0)

	// Phase 3 — async-serial: the batch comparison baseline. Async
	// submits return on registration, so this measures per-frame
	// overhead without the step latency.
	asyncClients, err := dialN(h.addr, opts.Conns)
	if err != nil {
		closeAll(muxClients)
		return nil, err
	}
	elapsed, col = closedLoop(asyncClients, 1, opts.Duration, asyncReq)
	closeAll(asyncClients)
	rep.AsyncSerial = col.result("async-serial", elapsed)
	h.engine.Prune(0)

	// Phase 4 — batch: BatchSize async flows per frame over the muxed
	// connections. Each batch call counts BatchSize requests.
	reqs := make([]*dgl.Request, opts.BatchSize)
	for i := range reqs {
		reqs[i] = dgl.NewAsyncRequest("bench", "", flow)
	}
	elapsed, col = batchLoop(muxClients, reqs, opts.Duration)
	rep.Batch = col.result("batch", elapsed)
	h.engine.Prune(0)

	// Phases 4b/4c — codec: the variable-heavy workload submitted
	// asynchronously and in batches over muxed sessions, so the phases
	// measure encode/decode cost rather than step execution. A
	// steady-state pruner runs throughout: each completed carrier flow
	// retains its (large) variable map until pruned, and without
	// continuous pruning the phases would measure their own heap growth
	// instead of encode/decode cost — a long-run grid prunes finished
	// flows continuously anyway.
	cflow := codecFlow()
	codecReq := func(c *wire.Client) error { return submitAsync(c, cflow) }
	// The codec phases run a longer window than the protocol phases:
	// the carrier requests are large, so per-window sample counts are
	// lower and a single GC pause would otherwise swing the result.
	codecWindow := 2 * opts.Duration
	codecReqs := make([]*dgl.Request, opts.BatchSize)
	for i := range codecReqs {
		codecReqs[i] = dgl.NewAsyncRequest("bench", "", cflow)
	}
	pruneStop := make(chan struct{})
	var pruneWG sync.WaitGroup
	pruneWG.Add(1)
	go func() {
		defer pruneWG.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-pruneStop:
				return
			case <-t.C:
				h.engine.Prune(0)
			}
		}
	}()
	codecClients, err := dialN(h.addr, opts.Conns)
	if err != nil {
		close(pruneStop)
		pruneWG.Wait()
		closeAll(muxClients)
		return nil, err
	}
	runtime.GC() // level the heap before each codec phase
	elapsed, col = closedLoop(codecClients, opts.Inflight, codecWindow, codecReq)
	rep.AsyncCodecBin = col.result("async-codec-bin", elapsed)
	h.engine.Prune(0)
	runtime.GC()
	elapsed, col = batchLoop(codecClients, codecReqs, codecWindow)
	rep.BatchCodecBin = col.result("batch-codec-bin", elapsed)
	h.engine.Prune(0)
	closeAll(codecClients)
	close(pruneStop)
	pruneWG.Wait()

	// Phase 5 — open loop: fire sync requests at TargetRPS over the
	// muxed connections regardless of completions, so queueing delay
	// shows up in the latency percentiles instead of hiding behind a
	// closed loop's self-throttling.
	if opts.TargetRPS > 0 {
		olCol := &collector{}
		interval := time.Second / time.Duration(opts.TargetRPS)
		ticker := time.NewTicker(interval)
		olDeadline := time.Now().Add(opts.Duration)
		olStart := time.Now()
		var olWG sync.WaitGroup
		i := 0
		for now := range ticker.C {
			if !now.Before(olDeadline) {
				break
			}
			c := muxClients[i%len(muxClients)]
			i++
			olWG.Add(1)
			go func(c *wire.Client) {
				defer olWG.Done()
				t0 := time.Now()
				if err := syncReq(c); err != nil {
					olCol.fail()
					return
				}
				olCol.ok(time.Since(t0))
			}(c)
		}
		ticker.Stop()
		olWG.Wait()
		ol := olCol.result("open-loop", time.Since(olStart))
		rep.OpenLoop = &ol
	}
	closeAll(muxClients)

	// Phase 6 (optional) — federated: the same sleep workload as a
	// parallel flow whose subflows the first peer's federation delegates
	// across FederatedPeers peers. Requests count subflows, so RPS is
	// comparable to the other phases' flows/s.
	if opts.FederatedPeers >= 2 {
		fed, err := runFederated(opts)
		if err != nil {
			return nil, err
		}
		rep.Federated = fed
		rep.FederatedPeers = opts.FederatedPeers
	}

	// Phase 7 (optional) — sharded: sync sleep flows submitted to every
	// peer of a sharded topology and routed to their shard owners.
	if opts.ShardedPeers >= 2 {
		sh, err := runSharded(opts)
		if err != nil {
			return nil, err
		}
		rep.Sharded = sh
		rep.ShardedPeers = opts.ShardedPeers
	}

	if rep.Serial.RPS > 0 {
		rep.SpeedupPipelined = rep.Pipelined.RPS / rep.Serial.RPS
	}
	if rep.AsyncSerial.RPS > 0 {
		rep.SpeedupBatch = rep.Batch.RPS / rep.AsyncSerial.RPS
	}
	return rep, nil
}
