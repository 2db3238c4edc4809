package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/replica"
	"datagridflow/internal/shard"
	"datagridflow/internal/store"
	"datagridflow/internal/wire"
)

// The durable fleet: two in-process peers and a lookup registry, sharded
// over fleetShards shards. Each peer owns a binary store in a fresh
// directory of the checkout's filesystem, fsynced per group commit, and
// replicates it in quorum mode to the other peer. One connection per
// peer carries fleetInflight synchronous flows; routing keys spread over
// the shards, so about half of the submits reach the peer that does not
// own their shard, which routes them. Every traced run replays its
// workload's flows through it to measure the store, replica and shard
// layers on the durable path.
const (
	fleetPeers    = 2
	fleetShards   = 16
	fleetInflight = 4
	fleetFlows    = 300 // per peer, under load
	hopFlows      = 200 // one at a time, for the route hop
)

type fleetPeer struct {
	name     string
	reg      *obs.Registry
	grid     *dgms.Grid
	engine   *matrix.Engine
	peer     *wire.Peer
	store    *store.Store
	storeDir string
	client   *wire.Client
}

type fleet struct {
	dir    string
	lookup *wire.LookupServer
	peers  []*fleetPeer
}

// newFleet starts a two-peer durable fleet under a fresh directory of
// base.
func newFleet(base string) (*fleet, error) {
	dir, err := os.MkdirTemp(base, "fleet-*")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, lookup: wire.NewLookupServer()}
	f.lookup.SetShards(fleetShards)
	lookupAddr, err := f.lookup.Listen("127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	var names []string
	for i := 0; i < fleetPeers; i++ {
		p, err := newFleetPeer(fmt.Sprintf("peer%d", i), dir, lookupAddr)
		if err != nil {
			f.close()
			return nil, err
		}
		f.peers = append(f.peers, p)
		names = append(names, p.name)
	}
	// Two rebalance rounds settle ring ownership: the first releases
	// what the ring moved away, the second claims it.
	for range [2]int{} {
		for _, p := range f.peers {
			p.peer.RebalanceShards(names)
		}
	}
	for _, p := range f.peers {
		if p.client, err = dial(p.peer.Addr(), ""); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func newFleetPeer(name, dir, lookupAddr string) (*fleetPeer, error) {
	reg := obs.NewRegistry()
	g, err := newGrid(reg)
	if err != nil {
		return nil, err
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid/ss"); err != nil {
		return nil, err
	}
	e := matrix.NewEngineConfig(g, matrix.Config{IDPrefix: name + ":"})
	p := &fleetPeer{name: name, reg: reg, grid: g, engine: e, storeDir: filepath.Join(dir, name, "store")}
	if p.store, err = store.Open(p.storeDir, store.Options{Binary: true, Obs: reg}); err != nil {
		return nil, err
	}
	e.SetStore(p.store)
	p.peer = wire.NewPeerConfig(name, e, wire.ServerConfig{})
	p.peer.EnableSharding(shard.NewManager(shard.Config{
		Self: name, Shards: fleetShards, Obs: reg,
		Resident: func(id string) bool {
			_, ok := e.Execution(id)
			return ok
		},
	}))
	if err := p.peer.EnableReplication(wire.ReplicationConfig{
		Followers: 1, Mode: replica.AckMode("quorum"), Dir: filepath.Join(dir, name, "replica"), Binary: true,
	}); err != nil {
		p.store.Close()
		return nil, err
	}
	if _, err := p.peer.Start("127.0.0.1:0", lookupAddr); err != nil {
		p.store.Close()
		return nil, err
	}
	return p, nil
}

// stop closes clients, peers, stores and the lookup, leaving the files
// in place.
func (f *fleet) stop() {
	for _, p := range f.peers {
		if p.client != nil {
			p.client.Close()
			p.client = nil
		}
		if p.peer != nil {
			p.peer.Close()
			p.peer = nil
		}
		if p.store != nil {
			p.store.Close()
			p.store = nil
		}
	}
	if f.lookup != nil {
		f.lookup.Close()
		f.lookup = nil
	}
}

// close stops the fleet and removes its files.
func (f *fleet) close() {
	f.stop()
	os.RemoveAll(f.dir)
}

func (f *fleet) regs() []*obs.Registry {
	var out []*obs.Registry
	for _, p := range f.peers {
		out = append(out, p.reg)
	}
	return out
}

func (f *fleet) peerByName(name string) *fleetPeer {
	for _, p := range f.peers {
		if p.name == name {
			return p
		}
	}
	return nil
}

// storeBytes sums the segment bytes of every peer's store.
func (f *fleet) storeBytes() int64 {
	var n int64
	for _, p := range f.peers {
		n += dirBytes(p.storeDir)
	}
	return n
}

// fleetReplay sends fleetFlows of the workload's probe flows to each
// peer of a fresh durable fleet, fleetInflight at a time, then hopFlows
// one at a time, and fills the store, replica and shard rows of the
// ledger from the fleet's counters and timings. It checks what the
// durable path promises: every acknowledged flow is ended in its
// owner's store, and again after the store is closed and reopened, and
// each follower's replica has applied its owner's store through the
// owner's replication sequence.
func fleetReplay(cfg config, in layerInputs, m map[string]float64, out *outcome) error {
	f, err := newFleet(cfg.work)
	if err != nil {
		return err
	}
	defer f.close()
	fsyncUs, err := fsyncProbe(f.dir, 200)
	if err != nil {
		return err
	}
	out.info["fsync_p50_us"] = fsyncUs

	type acked struct {
		id     string
		owner  *fleetPeer
		routed bool
		us     float64
	}
	// send submits probe flow i to peer i%fleetPeers (by flow, so one
	// seed routes the same flows every run) and checks its reply.
	send := func(i int) (acked, error) {
		p := f.peers[i%fleetPeers]
		t0 := time.Now()
		ctx, cancel := submitCtx()
		defer cancel()
		res, err := p.client.Submit(ctx, in.probe(i))
		var st *dgl.FlowStatus
		if err == nil {
			st, err = res.Status()
		}
		if err == nil {
			err = checkTree(st, "", in.steps)
		}
		if err != nil {
			return acked{}, fmt.Errorf("fleet replay flow %d: %w", i, err)
		}
		owner := f.peerByName(wire.OwnerOf(st.ID))
		if owner == nil {
			return acked{}, fmt.Errorf("fleet replay: flow %s has no owner peer", st.ID)
		}
		return acked{st.ID, owner, owner != p, float64(time.Since(t0).Nanoseconds()) / 1e3}, nil
	}

	// Under load: the counters of group commit, replication and routing.
	workers := fleetPeers * fleetInflight
	done := make([][]acked, workers+1)
	var next atomic.Int64
	before, bytes0 := counters(f.regs()), f.storeBytes()
	res := closedLoop(workers, time.Hour, func(w int) error {
		i := int(next.Add(1))
		if i > fleetFlows*fleetPeers {
			return errDone
		}
		a, err := send(3_000_000 + i)
		if err == nil {
			done[w] = append(done[w], a)
		}
		return err
	})
	if res.failed > 0 {
		return fmt.Errorf("fleet replay: %d of %d flows failed", res.failed, res.attempted)
	}
	w := delta(before, counters(f.regs()))
	flows := float64(res.attempted)
	m["store.records_per_fsync"] = w["journal_group_commit_records_total"] / w["journal_group_commits_total"]
	m["store.fsyncs_per_flow"] = w["journal_group_commits_total"] / flows
	m["store.bytes_per_flow"] = float64(f.storeBytes()-bytes0) / flows
	m["replica.frames_per_flow"] = w["repl_frames_sent_total"] / flows
	m["replica.ack_timeouts"] = w["repl_ack_timeouts_total"]
	routed := w["shard_routes_total/routed"]
	m["shard.routed_frac"] = routed / (routed + w["shard_routes_total/local"])

	// One at a time, so queueing does not hide it: the route hop is the
	// median latency of the flows a peer routed minus that of the flows
	// it owned.
	var local, remote []float64
	for i := 0; i < hopFlows; i++ {
		a, err := send(4_000_000 + i)
		if err != nil {
			return err
		}
		done[workers] = append(done[workers], a)
		if a.routed {
			remote = append(remote, a.us)
		} else {
			local = append(local, a.us)
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		return fmt.Errorf("fleet replay: %d local and %d routed flows", len(local), len(remote))
	}
	m["shard.route_hop_us"] = median(remote) - median(local)

	for _, d := range done {
		for _, a := range d {
			if e, ok := a.owner.store.Entry(execID(a.id)); !ok || !e.Ended {
				out.fail("flow %s is not ended in %s's store", a.id, a.owner.name)
			}
		}
	}
	if err := checkReplicas(f, out); err != nil {
		return err
	}

	f.stop()
	for _, p := range f.peers {
		st, err := store.Open(p.storeDir, store.Options{Binary: true, Obs: obs.NewRegistry()})
		if err != nil {
			out.fail("reopen %s's store: %v", p.name, err)
			continue
		}
		for _, d := range done {
			for _, a := range d {
				if e, ok := st.Entry(execID(a.id)); a.owner == p && (!ok || !e.Ended) {
					out.fail("flow %s is not ended after reopening %s's store", a.id, p.name)
				}
			}
		}
		if err := st.Close(); err != nil {
			out.fail("close reopened store: %v", err)
		}
	}
	return nil
}

// checkReplicas waits until each peer's follower has applied the
// owner's store through its replication sequence.
func checkReplicas(f *fleet, out *outcome) error {
	for _, owner := range f.peers {
		want := owner.store.ReplSeq()
		var got uint64
		deadline := time.Now().Add(5 * time.Second)
		for {
			for _, q := range f.peers {
				if q == owner {
					continue
				}
				info, err := q.client.Repl()
				if err != nil {
					return fmt.Errorf("repl info from %s: %w", q.name, err)
				}
				for _, s := range info.Sources {
					if s.Source == owner.name {
						got = s.LastSeq
					}
				}
			}
			if got >= want || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if got < want {
			out.fail("follower of %s applied through seq %d, owner is at %d", owner.name, got, want)
		}
	}
	return nil
}
