package main

import (
	"fmt"
	"math"

	"datagridflow/internal/dgl"
)

// rng is splitmix64. Every generated input is a pure function of (seed,
// stream, index), so the request stream does not depend on which client
// goroutine happens to draw which index.
type rng struct{ s uint64 }

func newRNG(seed int64, stream, i uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream<<40 ^ i}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

// Generator streams: each workload and phase draws from its own.
const (
	streamILM = iota + 1
	streamPool
	streamArrival
	streamArrivalKind
)

// Grid resources every workload's grids carry: objects are ingested on
// the disk resource of one domain and replicated to the archive of
// another.
const (
	resDisk    = "bench-disk"
	resArchive = "bench-archive"
)

// ilmInput is one generated ILM pipeline flow and what it must leave in
// the namespace.
type ilmInput struct {
	req     *dgl.Request
	coll    string
	objects []string
	attr    string
	value   string
}

// ilmFlow builds the paper's ILM pipeline: make a per-flow collection,
// ingest objs objects into it, then forEach over the collection's
// objects (a namespace query) replicate to the archive, verify the
// checksum and tag the object. The flow has 1 + objs + objs*3 steps,
// plus one more tagging step per object when extraTag is set.
func ilmFlow(seed int64, stream uint64, user, phase string, i, objs int, extraTag bool) ilmInput {
	r := newRNG(seed, stream, uint64(i))
	in := ilmInput{
		coll:  fmt.Sprintf("/grid/%s/%s/f%06d", user, phase, i),
		attr:  "ilm.state",
		value: fmt.Sprintf("archived-%08x", uint32(r.next())),
	}
	stage := dgl.NewFlow("stage").
		Step("mkcoll", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": in.coll}))
	for k := 0; k < objs; k++ {
		path := fmt.Sprintf("%s/obj%d.dat", in.coll, k)
		in.objects = append(in.objects, path)
		// Sizes span 4 KiB to 64 MiB; the virtual clock makes the
		// simulated transfer and checksum time free of wall time.
		size := int64(4<<10) << r.intn(15)
		stage.Step(fmt.Sprintf("ingest%d", k), dgl.Op(dgl.OpIngest, map[string]string{
			"path": path, "size": fmt.Sprint(size), "resource": resDisk,
		}))
	}
	sweep := dgl.NewFlow("sweep").ForEachQuery("obj", dgl.NSQuery{Scope: in.coll, ObjectsOnly: true}).
		Step("replicate", dgl.Op(dgl.OpReplicate, map[string]string{"path": "$obj", "to": resArchive})).
		Step("verify", dgl.Op(dgl.OpVerify, map[string]string{"path": "$obj"})).
		Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$obj", "attr": in.attr, "value": in.value}))
	if extraTag {
		sweep.Step("tier", dgl.Op(dgl.OpSetMeta, map[string]string{"path": "$obj", "attr": "ilm.tier", "value": "archive"}))
	}
	f := dgl.NewFlow(fmt.Sprintf("ilm-%s-%d", phase, i)).SubFlow(stage).SubFlow(sweep).Flow()
	in.req = dgl.NewRequest(user, "", f)
	return in
}

// ilmSteps is the step count of an ilmFlow.
func ilmSteps(objs int, extraTag bool) int {
	per := 3
	if extraTag {
		per = 4
	}
	return 1 + objs + objs*per
}

// arrival is one open-loop event of submit-status.
type arrival struct {
	at     float64 // seconds after the start of the measured window
	status bool    // a detailed status query, else a 1-step setMeta submit
	tenant int
	// target is the pool flow queried, or the pre-ingested object tagged.
	target int
	value  string
}

// poissonTimes returns the send times, in seconds from the start, of a
// Poisson arrival process at rate per second over window seconds.
func poissonTimes(seed int64, stream uint64, rate, window float64) []float64 {
	var at []float64
	for clock, i := 0.0, 0; ; i++ {
		clock += -math.Log(newRNG(seed, stream, uint64(i)).float()) / rate
		if clock >= window {
			return at
		}
		at = append(at, clock)
	}
}

// arrivals generates the Poisson arrival schedule of submit-status over
// window seconds at the offered rate, a statusShare of them status
// queries.
func arrivals(seed int64, window, rate, statusShare float64, tenants, poolPerTenant, objsPerTenant int) []arrival {
	times := poissonTimes(seed, streamArrival, rate, window)
	out := make([]arrival, len(times))
	for i, at := range times {
		r := newRNG(seed, streamArrivalKind, uint64(i))
		a := arrival{at: at, tenant: r.intn(tenants)}
		if r.float() <= statusShare {
			a.status = true
			a.target = r.intn(poolPerTenant)
		} else {
			a.target = r.intn(objsPerTenant)
			a.value = fmt.Sprintf("v%08x", uint32(r.next()))
		}
		out[i] = a
	}
	return out
}

// tenantName names submit-status tenant t.
func tenantName(t int) string { return fmt.Sprintf("tenant%d", t) }

// statusObject is the pre-ingested object k of tenant t.
func statusObject(t, k int) string { return fmt.Sprintf("/grid/ss/%s/o%03d.dat", tenantName(t), k) }

// tagRequest is the 1-step flow, named name, of a submit-status submit.
func tagRequest(a arrival, name string) *dgl.Request {
	f := dgl.NewFlow(name).
		Step("tag", dgl.Op(dgl.OpSetMeta, map[string]string{
			"path": statusObject(a.tenant, a.target), "attr": "ss.tag", "value": a.value,
		})).Flow()
	return dgl.NewRequest(tenantName(a.tenant), "", f)
}
