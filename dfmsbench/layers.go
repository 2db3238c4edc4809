package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/provenance"
	"datagridflow/internal/replica"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/shard"
	"datagridflow/internal/store"
	"datagridflow/internal/tenant"
	"datagridflow/internal/wire"
)

// capture keeps a seeded reservoir of the requests the run sent and the
// responses it received, the inputs of the single-layer replays.
type capture struct {
	mu    sync.Mutex
	r     *rng
	seen  int
	reqs  []*dgl.Request
	resps []*dgl.Response
}

const captureSize = 256

func newCapture(seed int64) *capture { return &capture{r: newRNG(seed, 99, 0)} }

func (c *capture) add(req *dgl.Request, resp *dgl.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	if len(c.reqs) < captureSize {
		c.reqs = append(c.reqs, req)
		c.resps = append(c.resps, resp)
		return
	}
	if j := c.r.intn(c.seen); j < captureSize {
		c.reqs[j], c.resps[j] = req, resp
	}
}

// counters sums every counter of regs by name, across labels, and keeps
// the shard routing outcomes apart.
func counters(regs []*obs.Registry) map[string]float64 {
	m := map[string]float64{}
	for _, r := range regs {
		for _, p := range r.Snapshot().Counters {
			m[p.Name] += float64(p.Value)
			if p.Name == "shard_routes_total" {
				m["shard_routes_total/"+p.Labels["outcome"]] += float64(p.Value)
			}
		}
	}
	return m
}

// delta returns after minus before for every counter in after.
func delta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// layerInputs is what a traced run hands to the per-layer ledger.
type layerInputs struct {
	engine *matrix.Engine
	grid   *dgms.Grid
	// client reaches engine; the overhead probe sends probe flows on it
	// one at a time.
	client *wire.Client
	// probe returns fresh flows of the workload's shape that engine
	// accepts locally.
	probe       func(i int) *dgl.Request
	steps       int
	capture     *capture
	statusIDs   []string
	concurrency int
	flows, ops  int64
	// window holds the obs counter deltas of the measured window, and
	// provenance the provenance records it added.
	window     map[string]float64
	provenance int64
}

// measureLayers fills the per-layer ledger: the traced run's own
// timings, obs counters of the window, and replays of captured inputs
// through single layers.
func measureLayers(cfg config, tr *tracer, in layerInputs, out *outcome) error {
	m := out.metrics
	m["wire.submit_rtt_us"] = median(tr.durations("wire.submit"))
	m["wire.status_rtt_us"] = median(tr.durations("wire.status"))
	w := in.window
	m["wire.bytes_per_op"] = (w["wire_bytes_in_total"] + w["wire_bytes_out_total"]) / float64(in.ops)
	m["provenance.records_per_flow"] = float64(in.provenance) / float64(in.flows)

	if err := overheadProbe(tr, in, m); err != nil {
		return err
	}
	if len(in.statusIDs) == 0 {
		return fmt.Errorf("no completed flows to replay status queries of")
	}
	var serr error
	ns, _, _ := perOp(5, len(in.statusIDs), func(i int) {
		if _, err := in.engine.Status(in.statusIDs[i%len(in.statusIDs)], true); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return fmt.Errorf("status replay: %w", serr)
	}
	m["matrix.status_detail_us"] = ns / 1e3
	if err := replayCodec(in, m); err != nil {
		return err
	}
	if err := replayTenantScheduler(m); err != nil {
		return err
	}
	if err := replayGrid(cfg, in, m); err != nil {
		return err
	}
	recs, err := recordStream(cfg, in)
	if err != nil {
		return err
	}
	if err := replayStore(cfg, in, recs, m); err != nil {
		return err
	}
	if err := replayReplica(cfg, recs, m); err != nil {
		return err
	}
	replayShard(in, m)
	if err := fleetReplay(cfg, in, m, out); err != nil {
		return err
	}
	m["trace.spans"] = float64(tr.len())
	return tr.write(filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed)))
}

// overheadProbes is the flow count of each side of the overhead probe.
const overheadProbes = 200

// overheadProbe sends probe flows one at a time over the wire and
// submits the same shape in-process, alternating, on the idle system:
// wire.overhead_us is the difference of the two medians, and the
// in-process side gives the engine's per-flow and per-step cost.
func overheadProbe(tr *tracer, in layerInputs, m map[string]float64) error {
	var rtt, local []float64
	var allocs, bytes uint64
	for i := 0; i < overheadProbes; i++ {
		req := in.probe(2 * i)
		ctx, cancel := submitCtx()
		t0 := time.Now()
		res, err := in.client.Submit(ctx, req)
		t1 := time.Now()
		cancel()
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			return fmt.Errorf("overhead probe over the wire: %w", err)
		}
		tr.record("probe.wire_submit", res.Response.Status.ID, 0, t0, t1)
		rtt = append(rtt, float64(t1.Sub(t0).Nanoseconds())/1e3)

		req = in.probe(2*i + 1)
		a0 := readAllocs()
		t0 = time.Now()
		resp, err := in.engine.Submit(req)
		t1 = time.Now()
		a1 := readAllocs()
		if err == nil && resp.Error != "" {
			err = fmt.Errorf("%s", resp.Error)
		}
		if err != nil {
			return fmt.Errorf("overhead probe in-process: %w", err)
		}
		tr.record("probe.engine_submit", resp.Status.ID, 0, t0, t1)
		local = append(local, float64(t1.Sub(t0).Nanoseconds())/1e3)
		allocs += a1.mallocs - a0.mallocs
		bytes += a1.bytes - a0.bytes
	}
	submit := median(local)
	m["matrix.submit_us"] = submit
	m["matrix.step_us"] = submit / float64(in.steps)
	m["matrix.step_allocs"] = float64(allocs) / float64(overheadProbes*in.steps)
	m["matrix.step_bytes"] = float64(bytes) / float64(overheadProbes*in.steps)
	m["wire.overhead_us"] = median(rtt) - submit
	return nil
}

// replayCodec replays the captured requests and responses through the
// mux frame layer, the binary codec and the DGL validator and marshaller.
func replayCodec(in layerInputs, m map[string]float64) error {
	reqs, resps := in.capture.reqs, in.capture.resps
	if len(reqs) == 0 {
		return fmt.Errorf("no captured requests")
	}
	payloads := make([][]byte, len(reqs))
	for i, r := range reqs {
		enc := codec.GetEncoder()
		codec.AppendRequest(enc, r)
		payloads[i] = append([]byte(nil), enc.Bytes()...)
		codec.PutEncoder(enc)
	}
	respPayloads := make([][]byte, len(resps))
	for i, r := range resps {
		enc := codec.GetEncoder()
		codec.AppendResponse(enc, r)
		respPayloads[i] = append([]byte(nil), enc.Bytes()...)
		codec.PutEncoder(enc)
	}
	n := len(reqs)
	var buf bytes.Buffer
	var ferr error
	ns, allocs, _ := perOp(5, n, func(i int) {
		buf.Reset()
		if err := wire.WriteMuxFrame(&buf, wire.KindDGL, uint64(i), payloads[i%n]); err != nil {
			ferr = err
		}
		if _, _, _, err := wire.ReadMuxFrame(&buf); err != nil {
			ferr = err
		}
	})
	m["wire.mux_frame_ns"], m["wire.mux_frame_allocs"] = ns, allocs
	ns, allocs, _ = perOp(5, n, func(i int) {
		enc := codec.GetEncoder()
		codec.AppendRequest(enc, reqs[i%n])
		codec.PutEncoder(enc)
	})
	m["codec.request_encode_ns"], m["codec.request_encode_allocs"] = ns, allocs
	ns, allocs, _ = perOp(5, n, func(i int) {
		if _, err := codec.DecodeRequest(payloads[i%n]); err != nil {
			ferr = err
		}
	})
	m["codec.request_decode_ns"], m["codec.request_decode_allocs"] = ns, allocs
	ns, _, _ = perOp(5, n, func(i int) {
		enc := codec.GetEncoder()
		codec.AppendResponse(enc, resps[i%n])
		codec.PutEncoder(enc)
	})
	m["codec.response_encode_ns"] = ns
	ns, allocs, _ = perOp(5, n, func(i int) {
		if _, err := codec.DecodeResponse(respPayloads[i%n]); err != nil {
			ferr = err
		}
	})
	m["codec.response_decode_ns"], m["codec.response_decode_allocs"] = ns, allocs

	var flows []*dgl.Request
	for _, r := range reqs {
		if r.Flow != nil {
			flows = append(flows, r)
		}
	}
	if len(flows) == 0 {
		return fmt.Errorf("no captured flow requests")
	}
	known := in.engine.KnownOps()
	nf := len(flows)
	ns, allocs, _ = perOp(5, nf, func(i int) {
		if err := dgl.ValidateFlow(flows[i%nf].Flow, known); err != nil {
			ferr = err
		}
	})
	m["dgl.validate_ns"], m["dgl.validate_allocs"] = ns, allocs
	ns, allocs, _ = perOp(5, nf, func(i int) {
		if _, err := dgl.Marshal(flows[i%nf]); err != nil {
			ferr = err
		}
	})
	m["dgl.marshal_us"], m["dgl.marshal_allocs"] = ns/1e3, allocs
	if ferr != nil {
		return fmt.Errorf("codec replay: %w", ferr)
	}
	return nil
}

// replayTenantScheduler times token verification, the tenant submit
// gate and one uncontended admission, on fresh instances.
func replayTenantScheduler(m map[string]float64) error {
	auth, err := tenant.NewAuthority([]byte("dfmsbench-replay-secret-0123456789"))
	if err != nil {
		return err
	}
	var toks []string
	for t := 0; t < 2; t++ {
		tok, err := auth.Mint(tenantName(t), time.Hour)
		if err != nil {
			return err
		}
		toks = append(toks, tok)
	}
	reg := tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry())
	for t := 0; t < 2; t++ {
		reg.Register(tenantName(t), tenant.Quota{Weight: 1})
	}
	adm := scheduler.NewAdmission(64, 256, obs.NewRegistry())
	ctx := context.Background()
	var rerr error
	m["tenant.verify_ns"], _, _ = perOp(5, 2000, func(i int) {
		if _, err := auth.Verify(toks[i%2]); err != nil {
			rerr = err
		}
	})
	m["tenant.allow_submit_ns"], _, _ = perOp(5, 2000, func(i int) {
		if err := reg.AllowSubmit(tenantName(i % 2)); err != nil {
			rerr = err
		}
	})
	m["scheduler.admission_ns"], _, _ = perOp(5, 2000, func(i int) {
		if err := adm.Acquire(ctx, tenantName(i%2)); err != nil {
			rerr = err
			return
		}
		adm.Release()
	})
	if rerr != nil {
		return fmt.Errorf("tenant and admission replay: %w", rerr)
	}
	return nil
}

// replayGrid times the DGMS operations of the workload flows on a fresh
// grid built like the workload's, then replays provenance appends and
// the labelled counter the engine bumps once per step.
func replayGrid(cfg config, in layerInputs, m map[string]float64) error {
	g, err := newGrid(obs.NewRegistry())
	if err != nil {
		return err
	}
	const n = 2000
	user := g.Admin()
	paths := make([]string, n)
	r := newRNG(cfg.seed, 77, 0)
	for i := range paths {
		paths[i] = fmt.Sprintf("/grid/replay/o%05d.dat", i)
	}
	if err := g.CreateCollectionAll(user, "/grid/replay"); err != nil {
		return err
	}
	phase := func(name string, fn func(p string) error) error {
		t0 := time.Now()
		for _, p := range paths {
			if err := fn(p); err != nil {
				return fmt.Errorf("%s %s: %w", name, p, err)
			}
		}
		m[name] = float64(time.Since(t0).Nanoseconds()) / 1e3 / n
		return nil
	}
	if err := phase("dgms.ingest_us", func(p string) error {
		return g.Ingest(user, p, int64(4<<10)<<r.intn(15), nil, resDisk)
	}); err != nil {
		return err
	}
	if err := phase("dgms.replicate_us", func(p string) error { return g.Replicate(user, p, resArchive) }); err != nil {
		return err
	}
	if err := phase("dgms.verify_us", func(p string) error {
		_, err := g.Verify(user, p)
		return err
	}); err != nil {
		return err
	}
	if err := phase("dgms.setmeta_us", func(p string) error { return g.SetMeta(user, p, "ilm.state", "archived") }); err != nil {
		return err
	}

	recs := in.grid.Provenance().Query(provenance.Filter{Limit: 512})
	if len(recs) == 0 {
		return fmt.Errorf("no provenance records captured")
	}
	mem := provenance.NewMemory()
	var perr error
	m["provenance.append_ns"], _, _ = perOp(5, len(recs), func(i int) {
		if _, err := mem.Append(recs[i%len(recs)]); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	// The labelled counter the engine increments once per step.
	reg := obs.NewRegistry()
	ops := []string{dgl.OpIngest, dgl.OpReplicate, dgl.OpVerify, dgl.OpSetMeta}
	m["obs.labelled_counter_ns"], m["obs.labelled_counter_allocs"], _ = perOp(5, 4000, func(i int) {
		reg.Counter("matrix_steps_total", "op", ops[i%len(ops)]).Inc()
	})
	return nil
}

// recordStream captures the lifecycle record stream the workload's flows
// write to a store: probe flows run in-process on a scratch engine with
// a fresh binary store, whose replication tap hands over every durable
// record in sequence order.
func recordStream(cfg config, in layerInputs) ([]store.Record, error) {
	dir, err := os.MkdirTemp(cfg.work, "records-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Binary: true, Obs: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var recs []store.Record
	st.SetTap(func(batch []store.TapRecord) func() {
		mu.Lock()
		for _, t := range batch {
			recs = append(recs, t.Rec)
		}
		mu.Unlock()
		return nil
	})
	g, err := newGrid(obs.NewRegistry())
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/ss"); err != nil {
		st.Close()
		return nil, err
	}
	e := matrix.NewEngine(g)
	e.SetStore(st)
	for i := 0; i < 64; i++ {
		resp, err := e.Submit(in.probe(1_000_000 + i))
		if err == nil && resp.Error != "" {
			err = fmt.Errorf("%s", resp.Error)
		}
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("record capture: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recs) == 0 {
		return nil, fmt.Errorf("record capture: the store tap saw no records")
	}
	return recs, nil
}

// replayStore appends the captured record stream into a fresh store at
// the workload's concurrency and reports the median Append latency.
func replayStore(cfg config, in layerInputs, recs []store.Record, m map[string]float64) error {
	dir, err := os.MkdirTemp(cfg.work, "store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Binary: true, Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	workers := max(in.concurrency, 1)
	const rounds = 4
	parts := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				for i := w; i < len(recs); i += workers {
					rec := recs[i]
					rec.ID = fmt.Sprintf("%s/r%d", rec.ID, k)
					t0 := time.Now()
					if err := st.Append(rec); err != nil {
						errs[w] = err
						return
					}
					parts[w] = append(parts[w], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
		}(w)
	}
	wg.Wait()
	cerr := st.Close()
	var all []float64
	for w := range parts {
		if errs[w] != nil {
			return fmt.Errorf("store replay: %w", errs[w])
		}
		all = append(all, parts[w]...)
	}
	if cerr != nil {
		return cerr
	}
	m["store.append_us"] = median(all)
	return nil
}

// replayReplica encodes the captured record stream into replication
// blocks, decodes them, and applies them into a fresh replica store.
func replayReplica(cfg config, recs []store.Record, m map[string]float64) error {
	const per = 8
	var chunks [][]store.Record
	for i := 0; i < len(recs); i += per {
		chunks = append(chunks, recs[i:min(i+per, len(recs))])
	}
	blocks := make([][]byte, len(chunks))
	var rerr error
	ns, _, _ := perOp(5, len(chunks), func(i int) {
		b, err := replica.EncodeBlock(chunks[i%len(chunks)], true)
		if err != nil {
			rerr = err
		}
		blocks[i%len(chunks)] = b
	})
	m["replica.encode_block_us"] = ns / 1e3
	ns, _, _ = perOp(5, len(blocks), func(i int) {
		if _, err := replica.DecodeBlock(blocks[i%len(blocks)]); err != nil {
			rerr = err
		}
	})
	m["replica.decode_block_us"] = ns / 1e3
	if rerr != nil {
		return fmt.Errorf("replica replay: %w", rerr)
	}
	dir, err := os.MkdirTemp(cfg.work, "replica-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rcv, err := replica.NewReceiver(replica.ReceiverConfig{Dir: dir, Binary: true, Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer rcv.Close()
	var seq uint64 = 1
	var times []float64
	for i, b := range blocks {
		f := replica.Frame{Op: replica.OpAppend, Source: "replay", Seq: seq, Count: len(chunks[i]), Block: b}
		t0 := time.Now()
		ack := rcv.Apply(f)
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ack.OK {
			return fmt.Errorf("replica replay: frame %d refused: %s", i, ack.Error)
		}
		seq += uint64(len(chunks[i]))
	}
	m["replica.apply_us"] = median(times)
	return nil
}

// replayShard resolves the captured routing keys against a two-peer
// shard table.
func replayShard(in layerInputs, m map[string]float64) {
	mgr := shard.NewManager(shard.Config{Self: "peer0", Shards: fleetShards, Obs: obs.NewRegistry()})
	owners := map[int]string{}
	for s := 0; s < fleetShards; s++ {
		owners[s] = fmt.Sprintf("peer%d", s%2)
	}
	mgr.SetOwners(owners)
	var keys []string
	for _, r := range in.capture.reqs {
		if r.Flow != nil {
			keys = append(keys, wire.RoutingKey(r.User.Name, r.Flow.Name))
		}
	}
	m["shard.owner_of_ns"], _, _ = perOp(5, 2000, func(i int) {
		mgr.OwnerOf(keys[i%len(keys)])
	})
}
