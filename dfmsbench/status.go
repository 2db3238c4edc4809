package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/tenant"
	"datagridflow/internal/wire"
)

// submit-status: an open loop of seeded Poisson arrivals at one offered
// rate over one mux connection per tenant. Each arrival is a synchronous
// 1-step setMeta flow or a detailed status query of a completed 16-step
// pool flow. Tenancy is on: tokens are required and weights are equal.
const (
	ssTenants = 2
	// ssRate is the offered rate in arrivals per second, about half of
	// what the mix sustains on the 2-CPU reference machine (an overloaded
	// run completes 5900 of 6000/s offered and 6800 of 12000/s), so the
	// open loop measures queueing at moderate load, not saturation.
	ssRate        = 3000.0
	ssStatusShare = 0.5
	ssPool        = 32 // pool flows per tenant
	ssObjects     = 256
	ssPoolObjects = 3 // pool flows: 1 + 3 + 3*4 = 16 steps
	ssWarmup      = 1000
	// ssMaxLateP99 marks a run invalid: a generator whose sends ran this
	// late at p99 fell behind its schedule, and the run measured the
	// backlog of the generator rather than the DfMS. Collection cycles of
	// the retained executions delay sends by up to about 25 ms at p99 on
	// the reference machine.
	ssMaxLateP99 = 50 * time.Millisecond
)

type ssSystem struct {
	reg     *obs.Registry
	grid    *dgms.Grid
	engine  *matrix.Engine
	server  *wire.Server
	clients []*wire.Client // one per tenant, presenting its token
	pool    [][]string     // completed pool flow ids per tenant
}

func (s *ssSystem) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.server.Close()
}

func newSSSystem(seed int64, round int) (*ssSystem, error) {
	reg := obs.NewRegistry()
	g, err := newGrid(reg)
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngine(g)
	srv := wire.NewServer(e)
	auth, err := tenant.NewAuthority([]byte(fmt.Sprintf("dfmsbench-secret-%d-%d", seed, round)))
	if err != nil {
		return nil, err
	}
	treg := tenant.NewRegistry(tenant.Quota{}, reg)
	for t := 0; t < ssTenants; t++ {
		treg.Register(tenantName(t), tenant.Quota{Weight: 1})
	}
	srv.SetTenancy(auth, treg, true)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &ssSystem{reg: reg, grid: g, engine: e, server: srv, pool: make([][]string, ssTenants)}
	for t := 0; t < ssTenants; t++ {
		name := tenantName(t)
		if err := g.CreateCollectionAll(name, fmt.Sprintf("/grid/ss/%s", name)); err != nil {
			s.close()
			return nil, err
		}
		r := newRNG(seed, streamPool, uint64(t))
		for k := 0; k < ssObjects; k++ {
			if err := g.Ingest(name, statusObject(t, k), int64(4<<10)<<r.intn(15), nil, resDisk); err != nil {
				s.close()
				return nil, err
			}
		}
		tok, err := auth.Mint(name, time.Hour)
		if err != nil {
			s.close()
			return nil, err
		}
		c, err := dial(addr, tok)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
		for i := 0; i < ssPool; i++ {
			in := ilmFlow(seed, streamPool, name, fmt.Sprintf("pool%d", round), i, ssPoolObjects, true)
			ctx, cancel := submitCtx()
			res, err := c.Submit(ctx, in.req)
			cancel()
			var st *dgl.FlowStatus
			if err == nil {
				st, err = res.Status()
			}
			if err == nil {
				err = checkTree(st, "", ilmSteps(ssPoolObjects, true))
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("pool flow: %w", err)
			}
			s.pool[t] = append(s.pool[t], st.ID)
		}
	}
	// Warm-up: a fixed count of the mix, closed loop.
	warm := arrivals(seed+int64(round)+1, ssWarmup/ssRate, ssRate, ssStatusShare, ssTenants, ssPool, ssObjects)
	var next atomic.Int64
	res := closedLoop(4, time.Hour, func(int) error {
		i := int(next.Add(1)) - 1
		if i >= len(warm) {
			return errDone
		}
		_, _, err := s.issue(warm[i], fmt.Sprintf("warm%d-%d", round, i))
		return err
	})
	if res.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up failed")
	}
	return s, nil
}

// issue performs one arrival (a submit names its flow name) and checks
// its reply. It returns the request and response (for the replay
// capture) and an error for a failed, refused or wrong reply.
func (s *ssSystem) issue(a arrival, name string) (*dgl.Request, *dgl.Response, error) {
	c := s.clients[a.tenant]
	if a.status {
		id := s.pool[a.tenant][a.target]
		req := dgl.NewStatusRequest(tenantName(a.tenant), id, true)
		ctx, cancel := submitCtx()
		res, err := c.Submit(ctx, req)
		cancel()
		if err != nil {
			return nil, nil, err
		}
		if res.Response.Error != "" {
			return nil, nil, fmt.Errorf("status %s: %s", id, res.Response.Error)
		}
		if err := checkTree(res.Response.Status, id, ilmSteps(ssPoolObjects, true)); err != nil {
			return nil, nil, err
		}
		return req, res.Response, nil
	}
	req := tagRequest(a, name)
	ctx, cancel := submitCtx()
	res, err := c.Submit(ctx, req)
	cancel()
	if err != nil {
		return nil, nil, err
	}
	st, err := res.Status()
	if err != nil {
		return nil, nil, err
	}
	if err := checkTree(st, "", 1); err != nil {
		return nil, nil, err
	}
	return req, res.Response, nil
}

func runSubmitStatus(cfg config) (*outcome, error) {
	out := newOutcome()
	sys, setup, err := setupRounds(setups, func(r int) (*ssSystem, error) { return newSSSystem(cfg.seed, r) },
		func(s *ssSystem) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	out.metrics["setup_s"] = setup
	recordEnv(out, cfg)
	tr := newTracer(cfg.trace)
	capture := newCapture(cfg.seed)

	plan := arrivals(cfg.seed, float64(cfg.seconds), ssRate, ssStatusShare, ssTenants, ssPool, ssObjects)
	ids := make([]string, len(plan))
	var stop chan struct{}
	var depth func() float64
	if cfg.trace {
		stop = make(chan struct{})
		depth = sampleQueueDepth([]*obs.Registry{sys.reg}, stop)
	}
	before := counters([]*obs.Registry{sys.reg})
	prov0 := sys.grid.Provenance().Len()
	collect()
	steal := stealMeter()
	cpu0 := cpuTime()
	start := time.Now()
	at := make([]float64, len(plan))
	for i, a := range plan {
		at[i] = a.at
	}
	res := openLoop(start, at, func(i int) error {
		t0 := time.Now()
		req, resp, err := sys.issue(plan[i], fmt.Sprintf("tag-%d", i))
		if err != nil {
			return err
		}
		name := "wire.submit"
		if plan[i].status {
			name = "wire.status"
		} else {
			ids[i] = resp.Status.ID
		}
		tr.record(name, resp.Status.ID, 0, t0, time.Now())
		capture.add(req, resp)
		return nil
	})
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	if stop != nil {
		close(stop)
	}
	after := counters([]*obs.Registry{sys.reg})
	out.info["steal_frac"] = steal()
	flowLat := res.completed(func(i int) bool { return !plan[i].status })
	statusLat := res.completed(func(i int) bool { return plan[i].status })
	flows, statuses := int64(len(flowLat)), int64(len(statusLat))
	out.attempted = int64(len(plan))
	out.failed = res.failures(out)
	if flows == 0 || statuses == 0 {
		return nil, fmt.Errorf("no submit or no status query completed")
	}

	// Check: each flow ran as its token's tenant.
	users := map[string]string{}
	for _, ex := range sys.engine.ListExecutions() {
		users[ex.ID] = ex.User
	}
	for i, id := range ids {
		if id == "" {
			continue
		}
		if want := tenantName(plan[i].tenant); users[execID(id)] != want {
			out.fail("flow %s ran as %q, want tenant %q", id, users[execID(id)], want)
		}
	}
	lateP99 := quantile(append([]float64(nil), res.late...), 0.99)
	achieved := float64(flows+statuses) / elapsed.Seconds()
	out.info["offered_rate"] = ssRate
	out.info["achieved_rate"] = achieved
	out.info["generator_late_p99_ms"] = lateP99
	out.info["generator_late_p50_ms"] = median(res.late)
	if lateP99 > float64(ssMaxLateP99.Milliseconds()) {
		out.fail("invalid run: generator late by %.2f ms at p99 (limit %v)", lateP99, ssMaxLateP99)
	}

	if cfg.trace {
		var all []string
		for _, p := range sys.pool {
			all = append(all, p...)
		}
		lin := layerInputs{
			engine: sys.engine, grid: sys.grid, client: sys.clients[0],
			probe: func(i int) *dgl.Request {
				f := dgl.NewFlow(fmt.Sprintf("probe-%d", i)).
					Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{"path": "/grid/ss", "attr": "ss.probe", "value": fmt.Sprint(i)})).Flow()
				return dgl.NewRequest(tenantName(0), "", f)
			},
			steps: 1, capture: capture, statusIDs: all, concurrency: 4,
			flows: flows, ops: flows + statuses, window: delta(before, after),
			provenance: int64(sys.grid.Provenance().Len() - prov0),
		}
		out.metrics["scheduler.queue_depth_mean"] = depth()
		out.metrics["trace.flows_per_s"] = float64(flows) / elapsed.Seconds()
		if err := measureLayers(cfg, tr, lin, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	flowMetrics(out, flowLat, elapsed, cpu, flows, flows+statuses, statusLat)
	out.metrics["heap_kb_per_flow"] = float64(liveHeap()) / 1024 / float64(len(sys.engine.Executions()))
	return out, nil
}
