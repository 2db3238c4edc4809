// Virtual-data load phase (`dgfbench -vdata`, experiment E18): proves
// the derivation catalog's two headline claims with one in-process run
// (docs/VDATA.md).
//
// Warm-pass elision: a set of distinct pure transformations runs cold
// against a durable catalog, then runs again. The warm pass must hit
// the catalog for (nearly) every step — the gated hit rate — and
// finish a large multiple faster than the cold pass, because a hit
// costs one catalog read instead of the transformation's compute time.
// The catalog is then closed and reopened to prove the derivations
// survive restart (replayed_entries).
//
// Cross-peer reuse: two wire peers share a lookup registry. PeerA
// computes the derivation set; peerB then runs the same flows, each
// local miss resolving the holder through the registry and grafting
// the entry over the wire's vdata verb. PeerB's pass must beat cold
// execution — fetching a memoized result across the fleet is cheaper
// than recomputing it — with every reuse counted in
// vdata_remote_hits_total.
package loadgen

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
	"datagridflow/internal/vdata"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// VdataOptions sizes the virtual-data phase. Use VdataDefaults or
// VdataSmallDefaults as a starting point.
type VdataOptions struct {
	// Small marks the CI-sized preset in the report.
	Small bool
	// Flows is the number of distinct pure derivations in the set.
	Flows int
	// StepLatency is each transformation's simulated compute time (real
	// wall clock, so elision shows up as wall-clock speedup).
	StepLatency time.Duration
}

// VdataDefaults is the full-scale preset.
func VdataDefaults() VdataOptions {
	return VdataOptions{Flows: 32, StepLatency: 20 * time.Millisecond}
}

// VdataSmallDefaults is the CI-sized preset.
func VdataSmallDefaults() VdataOptions {
	return VdataOptions{Small: true, Flows: 12, StepLatency: 10 * time.Millisecond}
}

// VdataReport is the artifact `dgfbench -vdata` writes as
// BENCH_vdata.json; the CI vdata job gates on it (docs/BENCH.md).
type VdataReport struct {
	Small       bool   `json:"small"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Flows       int    `json:"flows"`
	StepLatency string `json:"step_latency"`

	// Warm-pass elision against a durable catalog. HitRate is the gated
	// quantity (warm-pass hits / flows); WarmSpeedup = ColdMs/WarmMs.
	ColdMs      float64 `json:"cold_ms"`
	WarmMs      float64 `json:"warm_ms"`
	HitRate     float64 `json:"hit_rate"`
	WarmSpeedup float64 `json:"warm_speedup"`
	// Entries is the catalog population after the passes;
	// ReplayedEntries is the population after close + reopen — equality
	// proves the derivations are durable, not resident-only.
	Entries         int `json:"entries"`
	ReplayedEntries int `json:"replayed_entries"`

	// Cross-peer reuse: peerA computes RemoteColdMs, peerB reuses in
	// RemoteMs with RemoteHits wire grafts. RemoteSpeedup =
	// RemoteColdMs/RemoteMs — fleet reuse must beat recomputation.
	RemoteColdMs  float64 `json:"remote_cold_ms"`
	RemoteMs      float64 `json:"remote_ms"`
	RemoteHits    int     `json:"remote_hits"`
	RemoteSpeedup float64 `json:"remote_speedup"`
}

// String renders the report as the human-readable table dgfbench
// prints before writing the JSON artifact.
func (r *VdataReport) String() string {
	var b []byte
	b = fmt.Appendf(b, "== vdata load (%d flows, step=%s, gomaxprocs=%d) ==\n",
		r.Flows, r.StepLatency, r.GoMaxProcs)
	b = fmt.Appendf(b, "warm elision: cold %.0fms -> warm %.0fms (%.1fx), hit rate %.2f\n",
		r.ColdMs, r.WarmMs, r.WarmSpeedup, r.HitRate)
	b = fmt.Appendf(b, "durability: %d entries, %d replayed after reopen\n",
		r.Entries, r.ReplayedEntries)
	b = fmt.Appendf(b, "cross-peer: cold %.0fms -> reuse %.0fms (%.1fx), %d remote hits\n",
		r.RemoteColdMs, r.RemoteMs, r.RemoteSpeedup, r.RemoteHits)
	return string(b)
}

// vdataGrid builds a real-clock grid on its own metrics registry —
// wall time matters here, and counters must not cross phases.
func vdataGrid(name string) (*dgms.Grid, *obs.Registry, error) {
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Clock: sim.RealClock{}, Obs: reg})
	if err := g.RegisterResource(vfs.New("vdata-"+name, "local", vfs.Disk, 0)); err != nil {
		return nil, nil, err
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		return nil, nil, err
	}
	if err := g.Namespace().SetPermission("/grid", "*", namespace.PermWrite); err != nil {
		return nil, nil, err
	}
	return g, reg, nil
}

// vdataFlow is the i-th distinct pure transformation of the set.
func vdataFlow(i int, latency time.Duration) dgl.Flow {
	return dgl.NewFlow(fmt.Sprintf("derive-%d", i)).
		PureStep("transform", dgl.Op(dgl.OpExec, map[string]string{
			"command":    fmt.Sprintf("transform /grid/raw/part-%d", i),
			"cpuSeconds": strconv.FormatFloat(latency.Seconds(), 'f', -1, 64),
			"resultVar":  "derived",
		}), fmt.Sprintf("/grid/derived/part-%d.dat", i)).
		Flow()
}

// runVdataSet runs the whole derivation set sequentially and returns
// the wall-clock milliseconds.
func runVdataSet(e *matrix.Engine, opts VdataOptions) (float64, error) {
	t0 := time.Now()
	for i := 0; i < opts.Flows; i++ {
		ex, err := e.Run("user", vdataFlow(i, opts.StepLatency))
		if err != nil {
			return 0, err
		}
		if err := ex.Err(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / 1000, nil
}

// RunVdata executes the virtual-data phase and returns the report.
func RunVdata(opts VdataOptions) (*VdataReport, error) {
	if opts.Flows <= 0 || opts.StepLatency <= 0 {
		return nil, fmt.Errorf("loadgen: vdata options must be positive (got %+v)", opts)
	}
	rep := &VdataReport{
		Small:       opts.Small,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Flows:       opts.Flows,
		StepLatency: opts.StepLatency.String(),
	}

	// Phase 1 — warm-pass elision against a durable catalog.
	dir, err := os.MkdirTemp("", "vdata-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g, reg, err := vdataGrid("local")
	if err != nil {
		return nil, err
	}
	cat, err := vdata.Open(dir, reg)
	if err != nil {
		return nil, err
	}
	e := matrix.NewEngine(g)
	e.SetVdata(cat)
	if rep.ColdMs, err = runVdataSet(e, opts); err != nil {
		return nil, err
	}
	if rep.WarmMs, err = runVdataSet(e, opts); err != nil {
		return nil, err
	}
	rep.HitRate = float64(reg.Counter("vdata_hits_total").Value()) / float64(opts.Flows)
	if rep.WarmMs > 0 {
		rep.WarmSpeedup = rep.ColdMs / rep.WarmMs
	}
	rep.Entries = cat.Len()

	// Durability: reopen the log and count what replays.
	if err := cat.Close(); err != nil {
		return nil, err
	}
	reopened, err := vdata.Open(dir, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	rep.ReplayedEntries = reopened.Len()
	if err := reopened.Close(); err != nil {
		return nil, err
	}

	// Phase 2 — cross-peer reuse over the wire and the lookup registry.
	ls := wire.NewLookupServer()
	ls.SetObs(obs.NewRegistry())
	lookupAddr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ls.Close()
	newPeer := func(name string) (*wire.Peer, *matrix.Engine, *obs.Registry, error) {
		pg, preg, err := vdataGrid(name)
		if err != nil {
			return nil, nil, nil, err
		}
		pe := matrix.NewEngineConfig(pg, matrix.Config{IDPrefix: name + ":"})
		pcat, err := vdata.Open("", preg)
		if err != nil {
			return nil, nil, nil, err
		}
		p := wire.NewPeer(name, pe)
		p.EnableVdata(pcat)
		if _, err := p.Start("127.0.0.1:0", lookupAddr); err != nil {
			return nil, nil, nil, err
		}
		return p, pe, preg, nil
	}
	pa, ea, _, err := newPeer("peerA")
	if err != nil {
		return nil, err
	}
	defer pa.Close()
	pb, eb, regB, err := newPeer("peerB")
	if err != nil {
		return nil, err
	}
	defer pb.Close()
	if rep.RemoteColdMs, err = runVdataSet(ea, opts); err != nil {
		return nil, err
	}
	if rep.RemoteMs, err = runVdataSet(eb, opts); err != nil {
		return nil, err
	}
	rep.RemoteHits = int(regB.Counter("vdata_remote_hits_total").Value())
	if rep.RemoteMs > 0 {
		rep.RemoteSpeedup = rep.RemoteColdMs / rep.RemoteMs
	}
	return rep, nil
}
