package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/wire"
)

// ilm-sweep: one mux binary connection, ilmInflight synchronous ILM
// pipeline flows in flight, no store and no tenancy. As in matrixd,
// completed executions stay resident in the engine.
const (
	ilmInflight = 4
	ilmObjects  = 4
	ilmWarmup   = 200
)

type ilmSystem struct {
	reg    *obs.Registry
	grid   *dgms.Grid
	engine *matrix.Engine
	server *wire.Server
	client *wire.Client
}

func (s *ilmSystem) close() {
	s.client.Close()
	s.server.Close()
}

func newILMSystem(seed int64, round int) (*ilmSystem, error) {
	reg := obs.NewRegistry()
	g, err := newGrid(reg)
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngine(g)
	srv := wire.NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c, err := dial(addr, "")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &ilmSystem{reg: reg, grid: g, engine: e, server: srv, client: c}
	// Warm-up: a fixed count of flows, so lazy set-up finishes and the
	// set-up time grows with the system's own per-flow cost.
	var next atomic.Int64
	res := closedLoop(ilmInflight, time.Hour, func(int) error {
		i := int(next.Add(1))
		if i > ilmWarmup {
			return errDone
		}
		_, err := runILMFlow(c, ilmFlow(seed, streamILM, "ilm", fmt.Sprintf("warm%d", round), i, ilmObjects, false))
		return err
	})
	if res.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up failed")
	}
	return s, nil
}

// runILMFlow submits one ILM flow synchronously and checks the status
// tree the reply carries.
func runILMFlow(c *wire.Client, in ilmInput) (*dgl.Response, error) {
	ctx, cancel := submitCtx()
	defer cancel()
	res, err := c.Submit(ctx, in.req)
	if err != nil {
		return nil, err
	}
	st, err := res.Status()
	if err != nil {
		return nil, err
	}
	if err := checkTree(st, "", ilmSteps(ilmObjects, false)); err != nil {
		return nil, err
	}
	return res.Response, nil
}

func runILM(cfg config) (*outcome, error) {
	out := newOutcome()
	sys, setup, err := setupRounds(setups, func(r int) (*ilmSystem, error) { return newILMSystem(cfg.seed, r) },
		func(s *ilmSystem) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	out.metrics["setup_s"] = setup
	recordEnv(out, cfg)
	tr := newTracer(cfg.trace)

	// Main window: closed loop over one connection.
	var next atomic.Int64
	done := make([][]int, ilmInflight)
	ids := make([][]string, ilmInflight)
	capture := newCapture(cfg.seed)
	var stop chan struct{}
	var depth func() float64
	if cfg.trace {
		stop = make(chan struct{})
		depth = sampleQueueDepth([]*obs.Registry{sys.reg}, stop)
	}
	before := counters([]*obs.Registry{sys.reg})
	prov0 := sys.grid.Provenance().Len()
	flowT, statusT := make(timings, ilmInflight), make(timings, ilmInflight)
	steps := ilmSteps(ilmObjects, false)
	collect()
	steal := stealMeter()
	res := closedLoop(ilmInflight, time.Duration(cfg.seconds)*time.Second, func(w int) error {
		i := int(next.Add(1))
		in := ilmFlow(cfg.seed, streamILM, "ilm", "run", i, ilmObjects, false)
		t0 := time.Now()
		resp, err := runILMFlow(sys.client, in)
		if err != nil {
			return fmt.Errorf("flow %d: %w", i, err)
		}
		t1 := time.Now()
		id := resp.Status.ID
		flowT.add(w, t0, t1)
		span := tr.record("wire.submit", id, 0, t0, t1)
		capture.add(in.req, resp)
		done[w] = append(done[w], i)
		ids[w] = append(ids[w], id)
		// The user checks the result: a detailed status query of the
		// flow, so status latency is measured under the workload's load.
		if err := queryStatus(sys.client, "ilm", id, steps); err != nil {
			return fmt.Errorf("status of flow %d: %w", i, err)
		}
		t2 := time.Now()
		statusT.add(w, t1, t2)
		tr.record("wire.status", id, span, t1, t2)
		return nil
	})
	if stop != nil {
		close(stop)
	}
	after := counters([]*obs.Registry{sys.reg})
	out.info["steal_frac"] = steal()
	prov1 := sys.grid.Provenance().Len()
	flowLat, statusLat := flowT.ordered(), statusT.ordered()
	flows, ops := int64(len(flowLat)), int64(len(flowLat)+len(statusLat))
	out.attempted, out.failed = res.attempted+int64(len(statusLat)), res.failed
	if flows == 0 || len(statusLat) == 0 {
		return nil, fmt.Errorf("no flow or no status query completed")
	}

	// Check: every object of every completed flow has two replicas and
	// the flow's metadata value.
	ns := sys.grid.Namespace()
	var all []string
	for w := range done {
		all = append(all, ids[w]...)
		for _, i := range done[w] {
			in := ilmFlow(cfg.seed, streamILM, "ilm", "run", i, ilmObjects, false)
			for _, p := range in.objects {
				e, err := ns.Lookup(p)
				if err != nil {
					out.fail("object %s: %v", p, err)
					continue
				}
				if len(e.Replicas) != 2 || e.Metadata[in.attr] != in.value {
					out.fail("object %s: %d replicas, %s=%q; want 2 and %q", p, len(e.Replicas), in.attr, e.Metadata[in.attr], in.value)
				}
			}
		}
	}
	if cfg.trace {
		lin := layerInputs{
			engine: sys.engine, grid: sys.grid, client: sys.client,
			probe: func(i int) *dgl.Request {
				return ilmFlow(cfg.seed, streamILM, "ilm", "probe", i, ilmObjects, false).req
			},
			steps: ilmSteps(ilmObjects, false), capture: capture, statusIDs: all[:min(len(all), 200)],
			concurrency: ilmInflight, flows: flows, ops: ops, window: delta(before, after),
			provenance: int64(prov1 - prov0),
		}
		out.metrics["scheduler.queue_depth_mean"] = depth()
		out.metrics["trace.flows_per_s"] = float64(flows) / res.elapsed.Seconds()
		if err := measureLayers(cfg, tr, lin, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	flowMetrics(out, flowLat, res.elapsed, res.cpu, flows, ops, statusLat)
	out.metrics["heap_kb_per_flow"] = float64(liveHeap()) / 1024 / float64(len(sys.engine.Executions()))
	return out, nil
}
