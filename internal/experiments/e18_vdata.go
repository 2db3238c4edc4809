package experiments

import (
	"fmt"

	"datagridflow/internal/loadgen"
)

// E18Vdata quantifies the virtual-data derivation catalog
// (docs/VDATA.md):
//
//   - Warm-pass elision: a set of distinct pure transformations runs
//     cold against a durable catalog, then again. The warm pass must
//     hit for (nearly) every step — gated at ≥0.9 — and finish a
//     large multiple faster, because a hit costs a catalog read
//     instead of the transformation's compute.
//   - Durability: the catalog is closed and reopened; every entry
//     must replay (memoization survives restart).
//   - Cross-peer reuse: peerB runs the set peerA computed, each miss
//     resolving the holder through the lookup registry and grafting
//     the entry over the wire's vdata verb — reuse must beat cold
//     execution (benchgate, docs/BENCH.md).
func E18Vdata(s Scale) (*Report, error) {
	rep, err := E18VdataBench(s)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID: "E18", Title: "virtual-data catalog — warm elision & cross-peer reuse",
		Header: []string{"scenario", "metric", "value"},
	}
	r.Row("elision", "cold pass", fmt.Sprintf("%.0f ms (%d flows)", rep.ColdMs, rep.Flows))
	r.Row("elision", "warm pass", fmt.Sprintf("%.0f ms (%.1fx)", rep.WarmMs, rep.WarmSpeedup))
	r.Row("elision", "hit rate", fmt.Sprintf("%.2f", rep.HitRate))
	r.Row("durability", "entries replayed", fmt.Sprintf("%d / %d", rep.ReplayedEntries, rep.Entries))
	r.Row("cross-peer", "cold compute", fmt.Sprintf("%.0f ms", rep.RemoteColdMs))
	r.Row("cross-peer", "fleet reuse", fmt.Sprintf("%.0f ms (%.1fx)", rep.RemoteMs, rep.RemoteSpeedup))
	r.Row("cross-peer", "remote hits", fmt.Sprintf("%d", rep.RemoteHits))
	r.Note("workload: %d distinct pure transformations of %s simulated compute each, durable catalog, two-peer fleet on one lookup registry",
		rep.Flows, rep.StepLatency)
	r.Note("gate: hit rate >= 0.90, warm speedup >= 2.0, replayed == entries, remote speedup >= 1.2 with every reuse counted remotely (internal/infra/benchgate)")
	return r, nil
}

// E18VdataBench runs the virtual-data experiment and returns the
// machine-readable report `dgfbench -vdata` writes as BENCH_vdata.json.
func E18VdataBench(s Scale) (*loadgen.VdataReport, error) {
	opts := loadgen.VdataDefaults()
	if s == Small {
		opts = loadgen.VdataSmallDefaults()
	}
	return loadgen.RunVdata(opts)
}
