// Command benchgate compares fresh benchmark reports against their
// committed baselines and fails (exit 1) when a run regresses. It is
// the CI bench job's gate:
//
//	go run ./internal/infra/benchgate -baseline BENCH_wire.json -current out.json
//	go run ./internal/infra/benchgate -store-baseline BENCH_store.json -store-current store.json
//	go run ./internal/infra/benchgate -shard-baseline BENCH_shard.json -shard-current shard.json
//	go run ./internal/infra/benchgate -repl-baseline BENCH_repl.json -repl-current repl.json
//	go run ./internal/infra/benchgate -tenant-baseline BENCH_tenant.json -tenant-current tenant.json
//	go run ./internal/infra/benchgate -vdata-baseline BENCH_vdata.json -vdata-current vdata.json
//	go run ./internal/infra/benchgate -baseline BENCH_wire.json -current out.json \
//	    -store-baseline BENCH_store.json -store-current store.json \
//	    -shard-baseline BENCH_shard.json -shard-current shard.json \
//	    -repl-baseline BENCH_repl.json -repl-current repl.json
//
// Wire gate (-baseline/-current, the BENCH_wire.json load report): the
// gated quantities are the report's speedup *ratios* (pipelined/serial,
// batch/async-serial), not absolute RPS: a ratio compares two phases of
// the same run on the same machine, so it is stable across CI runners
// of very different speeds, while absolute throughput is printed for
// information only (docs/BENCH.md). A run fails when
//
//   - speedup_pipelined falls below -min-speedup (the protocol's
//     headline claim: pipelining must hide at least that multiple of
//     the per-request latency), or
//   - a gated speedup ratio drops more than -max-regress (fraction)
//     below the committed baseline's ratio.
//
// Store gate (-store-baseline/-store-current, the BENCH_store.json E14
// report): gates the flow-state store's claims (docs/STORE.md) the same
// ratio-first way. A run fails when
//
//   - replayReduction (journal records / store replay records on
//     restart) falls below -min-reduction,
//   - codecReplaySpeedup (binary vs JSONL segment replay on identical
//     snapshot streams) falls below -min-codec-speedup,
//   - residentAfterSweep exceeds 1% of the flow population (passivation
//     must actually evict idle flows from memory),
//   - residentAfterRecovery exceeds the same bound (a restart must not
//     re-inflate passivated flows), or
//   - replayReduction drops more than -max-regress below the baseline.
//
// Shard gate (-shard-baseline/-shard-current, the BENCH_shard.json E15
// report): gates the sharded-ownership claims (docs/FEDERATION.md,
// "Sharded ownership"). A run fails when
//
//   - speedup_4peer (any-peer throughput at 4 sharded peers over 1
//     peer) falls below -min-shard-scaling,
//   - a gated scaling ratio (speedup_2peer, speedup_4peer,
//     speedup_vs_single_owner) drops more than -max-regress below the
//     baseline,
//   - failover_ms exceeds the baseline by more than
//     -max-failover-regress (fraction) — lease takeover after an owner
//     death must stay bounded by the registry TTL, or
//   - the failover invariants break: the survivor did not take the
//     dead owner's lease, a submission errored during the takeover
//     window (any-peer submit must stay available), or a completed
//     flow of the dead owner was re-executed on the survivor
//     (replayed_from_genesis must be 0 — placement moves, history does
//     not).
//
// Repl gate (-repl-baseline/-repl-current, the BENCH_repl.json E16
// report): gates the replicated lifecycle store's claims
// (docs/REPLICATION.md) with absolute invariants — a replication bug is
// a data-loss bug, so these are not ratio-relative. A run fails when
//
//   - quorum_overhead_frac exceeds -max-repl-overhead (the headline
//     claim: quorum-acked submits cost at most that fraction over
//     bare submits),
//   - lost_flows is nonzero (a flow whose records the follower
//     acknowledged before the owner died must reappear on the
//     survivor — zero acknowledged-record loss),
//   - promoted_flows is zero while acked_live_flows is not (the
//     follower never promoted its replica),
//   - snapshots_shipped is zero (the catch-up path never exercised:
//     the cold/behind follower must have healed by snapshot), or
//   - takeover_ms exceeds the baseline by more than
//     -max-takeover-regress (fraction) — promotion replays the replica
//     in O(live flows), so takeover time must stay bounded.
//
// Tenant gate (-tenant-baseline/-tenant-current, the BENCH_tenant.json
// E17 report): gates the multi-tenant control plane's claims
// (docs/TENANCY.md) with absolute invariants — scheduling fairness and
// quota fidelity are correctness properties, not speedups. A run fails
// when
//
//   - min_fair_attained falls below -min-isolation (the headline
//     claim: under a flooding 10x-weight aggressor, every 1x tenant
//     must still attain at least that fraction of its
//     weight-proportional fair share),
//   - false_rejections is nonzero (a tenant with no resource limits
//     was quota-rejected in the steady phase),
//   - breach_rejections is zero (the positive control drew no
//     rejections, so enforcement was dead while fairness was
//     measured), or
//   - registry_tenants is below 100000 (the footprint was not
//     measured at the claimed population scale).
//
// Vdata gate (-vdata-baseline/-vdata-current, the BENCH_vdata.json
// E18 report): gates the virtual-data catalog's claims
// (docs/VDATA.md). A run fails when
//
//   - hit_rate falls below -min-vdata-hitrate (the warm pass must
//     find its derivations memoized),
//   - warm_speedup falls below -min-vdata-speedup (elision must
//     actually pay),
//   - replayed_entries differs from entries (derivations must survive
//     a catalog close + reopen),
//   - remote_hits is below the flow count (cross-peer reuse must
//     account for every derivation, counted in
//     vdata_remote_hits_total),
//   - remote_speedup falls below -min-vdata-remote-speedup (fetching
//     a memoized result across the fleet must beat recomputing it),
//     or
//   - a gated speedup ratio drops more than -max-regress below the
//     baseline.
//
// Each gate runs when its -*current flag is given; at least one is
// required. Output is a benchstat-style old/new/delta table per gate.
// stdlib only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"datagridflow/internal/experiments"
	"datagridflow/internal/loadgen"
)

func load(path string) (*loadgen.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadStore(path string) (*experiments.StoreBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.StoreBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadShard(path string) (*experiments.ShardBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.ShardBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadRepl(path string) (*experiments.ReplBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.ReplBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadVdata(path string) (*loadgen.VdataReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep loadgen.VdataReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadTenant(path string) (*loadgen.TenantReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep loadgen.TenantReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// row is one gated or informational comparison.
type row struct {
	name     string
	old, new float64
	unit     string
	gated    bool
}

// table renders rows benchstat-style, counting -max-regress failures on
// the gated ones.
func table(rows []row, maxRegress float64) (string, int) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s %8s\n", "metric", "old", "new", "delta")
	failures := 0
	for _, r := range rows {
		delta := 0.0
		if r.old != 0 {
			delta = (r.new - r.old) / r.old * 100
		}
		verdict := ""
		if r.gated && r.old > 0 && r.new < r.old*(1-maxRegress) {
			verdict = "  REGRESSION"
			failures++
		}
		fmt.Fprintf(&b, "%-20s %9.2f %-4s %9.2f %-4s %+7.1f%%%s\n", r.name, r.old, r.unit, r.new, r.unit, delta, verdict)
	}
	return b.String(), failures
}

// gate renders the wire old/new/delta table and counts gate failures.
func gate(base, cur *loadgen.Report, maxRegress, minSpeedup float64) (string, int) {
	out, failures := table([]row{
		{"speedup/pipelined", base.SpeedupPipelined, cur.SpeedupPipelined, "x", true},
		{"speedup/batch", base.SpeedupBatch, cur.SpeedupBatch, "x", true},
		{"rps/serial", base.Serial.RPS, cur.Serial.RPS, "req/s", false},
		{"rps/pipelined", base.Pipelined.RPS, cur.Pipelined.RPS, "req/s", false},
		{"rps/batch", base.Batch.RPS, cur.Batch.RPS, "req/s", false},
		{"rps/codec-async-bin", base.AsyncCodecBin.RPS, cur.AsyncCodecBin.RPS, "req/s", false},
		{"rps/codec-batch-bin", base.BatchCodecBin.RPS, cur.BatchCodecBin.RPS, "req/s", false},
		{"p99/pipelined", base.Pipelined.P99ms, cur.Pipelined.P99ms, "ms", false},
	}, maxRegress)
	var b strings.Builder
	b.WriteString(out)
	if cur.SpeedupPipelined < minSpeedup {
		fmt.Fprintf(&b, "\nFAIL: speedup_pipelined %.2fx below the %.1fx floor\n", cur.SpeedupPipelined, minSpeedup)
		failures++
	}
	return b.String(), failures
}

// gateStore renders the store old/new/delta table and counts gate
// failures. The resident bound is absolute (1% of flows), not
// baseline-relative: residency near zero makes percentage deltas
// meaningless.
func gateStore(base, cur *experiments.StoreBenchReport, maxRegress, minReduction, minCodec float64) (string, int) {
	out, failures := table([]row{
		{"replay/reduction", base.ReplayReduction, cur.ReplayReduction, "x", true},
		{"codec/replay", base.CodecReplaySpeedup, cur.CodecReplaySpeedup, "x", true},
		{"replay/records", float64(base.StoreReplayRecords), float64(cur.StoreReplayRecords), "rec", false},
		{"journal/records", float64(base.JournalRecords), float64(cur.JournalRecords), "rec", false},
		{"resident/sweep", float64(base.ResidentAfterSweep), float64(cur.ResidentAfterSweep), "exec", false},
		{"resident/recovery", float64(base.ResidentAfterRecovery), float64(cur.ResidentAfterRecovery), "exec", false},
		{"journal/scan", base.JournalScanMs, cur.JournalScanMs, "ms", false},
		{"store/open+recover", base.StoreOpenMs + base.RecoverMs, cur.StoreOpenMs + cur.RecoverMs, "ms", false},
	}, maxRegress)
	var b strings.Builder
	b.WriteString(out)
	if cur.ReplayReduction < minReduction {
		fmt.Fprintf(&b, "\nFAIL: replay reduction %.2fx below the %.1fx floor\n", cur.ReplayReduction, minReduction)
		failures++
	}
	if cur.CodecReplaySpeedup < minCodec {
		fmt.Fprintf(&b, "\nFAIL: codec replay speedup %.2fx below the %.1fx floor\n", cur.CodecReplaySpeedup, minCodec)
		failures++
	}
	residentMax := cur.Flows / 100
	if cur.ResidentAfterSweep > residentMax {
		fmt.Fprintf(&b, "\nFAIL: %d of %d flows still resident after passivation (bound: %d)\n",
			cur.ResidentAfterSweep, cur.Flows, residentMax)
		failures++
	}
	if cur.ResidentAfterRecovery > residentMax {
		fmt.Fprintf(&b, "\nFAIL: restart re-inflated %d of %d flows (bound: %d)\n",
			cur.ResidentAfterRecovery, cur.Flows, residentMax)
		failures++
	}
	if cur.ResurrectedOK != 1 {
		fmt.Fprintf(&b, "\nFAIL: sampled passivated flow did not resurrect after restart\n")
		failures++
	}
	return b.String(), failures
}

// gateShard renders the shard old/new/delta table and counts gate
// failures. Scaling ratios gate the usual ratio-first way; failover
// time gates against its own regression bound (it is bounded by the
// registry TTL, not machine speed, so -max-regress would be too tight),
// and the failover invariants are absolute.
func gateShard(base, cur *experiments.ShardBenchReport, maxRegress, minScaling, maxFailoverRegress float64) (string, int) {
	out, failures := table([]row{
		{"speedup/2peer", base.Speedup2, cur.Speedup2, "x", true},
		{"speedup/4peer", base.Speedup4, cur.Speedup4, "x", true},
		{"speedup/vs-funnel", base.SpeedupVsSingleOwner, cur.SpeedupVsSingleOwner, "x", true},
		{"rate/1peer", base.Rate1, cur.Rate1, "f/s", false},
		{"rate/4peer", base.Rate4, cur.Rate4, "f/s", false},
		{"rate/single-owner", base.RateSingleOwner, cur.RateSingleOwner, "f/s", false},
		{"failover/takeover", base.FailoverMs, cur.FailoverMs, "ms", false},
		{"failover/accepted", float64(base.AcceptedDuringFailover), float64(cur.AcceptedDuringFailover), "req", false},
	}, maxRegress)
	var b strings.Builder
	b.WriteString(out)
	if cur.Speedup4 < minScaling {
		fmt.Fprintf(&b, "\nFAIL: speedup_4peer %.2fx below the %.1fx floor\n", cur.Speedup4, minScaling)
		failures++
	}
	if base.FailoverMs > 0 && cur.FailoverMs > base.FailoverMs*(1+maxFailoverRegress) {
		fmt.Fprintf(&b, "\nFAIL: failover takeover %.0fms exceeds baseline %.0fms by more than %.0f%%\n",
			cur.FailoverMs, base.FailoverMs, maxFailoverRegress*100)
		failures++
	}
	if !cur.TakeoverOwned {
		fmt.Fprintf(&b, "\nFAIL: survivor never took over the dead owner's lease\n")
		failures++
	}
	if cur.FailoverSubmitErrors > 0 {
		fmt.Fprintf(&b, "\nFAIL: %d submissions errored during the failover window (any-peer submit must stay available)\n",
			cur.FailoverSubmitErrors)
		failures++
	}
	if cur.ReplayedFromGenesis > 0 {
		fmt.Fprintf(&b, "\nFAIL: %d of the dead owner's completed flows replayed from genesis on the survivor\n",
			cur.ReplayedFromGenesis)
		failures++
	}
	return b.String(), failures
}

// gateRepl renders the repl old/new/delta table and counts gate
// failures. Every check is absolute (or bounded against the baseline's
// takeover time): replication's claims are invariants, not speedups —
// "no overhead regression" is meaningless next to "no acknowledged
// record may be lost".
func gateRepl(base, cur *experiments.ReplBenchReport, maxOverhead, maxTakeoverRegress float64) (string, int) {
	out, failures := table([]row{
		{"rate/plain", base.RatePlain, cur.RatePlain, "f/s", false},
		{"rate/quorum", base.RateQuorum, cur.RateQuorum, "f/s", false},
		{"overhead/quorum", base.QuorumOverheadFrac * 100, cur.QuorumOverheadFrac * 100, "%", false},
		{"takeover/time", base.TakeoverMs, cur.TakeoverMs, "ms", false},
		{"takeover/acked", float64(base.AckedLiveFlows), float64(cur.AckedLiveFlows), "flow", false},
		{"takeover/promoted", float64(base.PromotedFlows), float64(cur.PromotedFlows), "flow", false},
		{"catchup/snapshots", float64(base.SnapshotsShipped), float64(cur.SnapshotsShipped), "snap", false},
	}, 0)
	var b strings.Builder
	b.WriteString(out)
	if cur.QuorumOverheadFrac > maxOverhead {
		fmt.Fprintf(&b, "\nFAIL: quorum submit overhead %.1f%% exceeds the %.0f%% bound\n",
			cur.QuorumOverheadFrac*100, maxOverhead*100)
		failures++
	}
	if cur.LostFlows > 0 {
		fmt.Fprintf(&b, "\nFAIL: %d of %d acknowledged live flows lost after promotion (must be 0)\n",
			cur.LostFlows, cur.AckedLiveFlows)
		failures++
	}
	if cur.AckedLiveFlows > 0 && cur.PromotedFlows == 0 {
		fmt.Fprintf(&b, "\nFAIL: follower never promoted its replica (%d acked live flows at the kill)\n",
			cur.AckedLiveFlows)
		failures++
	}
	if cur.SnapshotsShipped < 1 {
		fmt.Fprintf(&b, "\nFAIL: no catch-up snapshot shipped (the behind-follower heal path never ran)\n")
		failures++
	}
	if base.TakeoverMs > 0 && cur.TakeoverMs > base.TakeoverMs*(1+maxTakeoverRegress) {
		fmt.Fprintf(&b, "\nFAIL: takeover %.0fms exceeds baseline %.0fms by more than %.0f%%\n",
			cur.TakeoverMs, base.TakeoverMs, maxTakeoverRegress*100)
		failures++
	}
	return b.String(), failures
}

// gateTenant renders the tenant old/new/delta table and counts gate
// failures. Every check is absolute: isolation and quota fidelity are
// invariants of the scheduler, not machine-speed-dependent ratios.
func gateTenant(base, cur *loadgen.TenantReport, minIsolation float64) (string, int) {
	out, failures := table([]row{
		{"isolation/worst-1x", base.MinFairAttained, cur.MinFairAttained, "x", false},
		{"registry/tenants", float64(base.RegistryTenants), float64(cur.RegistryTenants), "ten", false},
		{"registry/bytes", base.RegistryBytesPerTenant, cur.RegistryBytesPerTenant, "B", false},
		{"flows/total", float64(base.TotalFlows), float64(cur.TotalFlows), "flow", false},
		{"quota/breach-hits", float64(base.BreachRejections), float64(cur.BreachRejections), "rej", false},
	}, 0)
	var b strings.Builder
	b.WriteString(out)
	if cur.MinFairAttained < minIsolation {
		fmt.Fprintf(&b, "\nFAIL: worst 1x tenant attained %.2f of fair share, below the %.2f floor (aggressor starvation)\n",
			cur.MinFairAttained, minIsolation)
		failures++
	}
	if cur.FalseRejections > 0 {
		fmt.Fprintf(&b, "\nFAIL: %d quota rejections in the steady phase (tenants had no limits — must be 0)\n",
			cur.FalseRejections)
		failures++
	}
	if cur.BreachRejections == 0 {
		fmt.Fprintf(&b, "\nFAIL: the positive-control quota breach drew no rejections (enforcement is dead)\n")
		failures++
	}
	if cur.RegistryTenants < 100000 {
		fmt.Fprintf(&b, "\nFAIL: registry measured at %d tenants, below the 100000 population floor\n",
			cur.RegistryTenants)
		failures++
	}
	return b.String(), failures
}

// gateVdata renders the vdata old/new/delta table and counts gate
// failures (docs/VDATA.md). The hit rate, durability and remote-hit
// accounting are absolute invariants; the two speedups get low
// absolute floors (elision and fleet reuse must actually pay) plus the
// shared ratio-regression check against the baseline.
func gateVdata(base, cur *loadgen.VdataReport, maxRegress, minHitRate, minWarmSpeedup, minRemoteSpeedup float64) (string, int) {
	out, failures := table([]row{
		{"elision/hit-rate", base.HitRate, cur.HitRate, "x", false},
		{"elision/warm-speedup", base.WarmSpeedup, cur.WarmSpeedup, "x", true},
		{"cross-peer/speedup", base.RemoteSpeedup, cur.RemoteSpeedup, "x", true},
		{"cross-peer/hits", float64(base.RemoteHits), float64(cur.RemoteHits), "hit", false},
		{"catalog/entries", float64(base.Entries), float64(cur.Entries), "ent", false},
	}, maxRegress)
	var b strings.Builder
	b.WriteString(out)
	if cur.HitRate < minHitRate {
		fmt.Fprintf(&b, "\nFAIL: warm-pass hit rate %.2f below the %.2f floor (memoization missed)\n",
			cur.HitRate, minHitRate)
		failures++
	}
	if cur.WarmSpeedup < minWarmSpeedup {
		fmt.Fprintf(&b, "\nFAIL: warm speedup %.2fx below the %.1fx floor (elision did not pay)\n",
			cur.WarmSpeedup, minWarmSpeedup)
		failures++
	}
	if cur.ReplayedEntries != cur.Entries {
		fmt.Fprintf(&b, "\nFAIL: %d of %d entries replayed after reopen (derivations must survive restart)\n",
			cur.ReplayedEntries, cur.Entries)
		failures++
	}
	if cur.RemoteHits < cur.Flows {
		fmt.Fprintf(&b, "\nFAIL: %d remote hits for %d flows (fleet reuse incomplete)\n",
			cur.RemoteHits, cur.Flows)
		failures++
	}
	if cur.RemoteSpeedup < minRemoteSpeedup {
		fmt.Fprintf(&b, "\nFAIL: cross-peer reuse %.2fx below the %.1fx floor (fetching lost to recomputing)\n",
			cur.RemoteSpeedup, minRemoteSpeedup)
		failures++
	}
	return b.String(), failures
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_wire.json", "committed wire baseline report")
	currentPath := flag.String("current", "", "fresh wire report to judge (enables the wire gate)")
	storeBaselinePath := flag.String("store-baseline", "BENCH_store.json", "committed store baseline report")
	storeCurrentPath := flag.String("store-current", "", "fresh store report to judge (enables the store gate)")
	shardBaselinePath := flag.String("shard-baseline", "BENCH_shard.json", "committed shard baseline report")
	shardCurrentPath := flag.String("shard-current", "", "fresh shard report to judge (enables the shard gate)")
	replBaselinePath := flag.String("repl-baseline", "BENCH_repl.json", "committed replication baseline report")
	replCurrentPath := flag.String("repl-current", "", "fresh replication report to judge (enables the repl gate)")
	tenantBaselinePath := flag.String("tenant-baseline", "BENCH_tenant.json", "committed tenant baseline report")
	tenantCurrentPath := flag.String("tenant-current", "", "fresh tenant report to judge (enables the tenant gate)")
	maxRegress := flag.Float64("max-regress", 0.20, "max allowed fractional drop of a gated ratio vs baseline")
	minSpeedup := flag.Float64("min-speedup", 3.0, "absolute floor for speedup_pipelined")
	minReduction := flag.Float64("min-reduction", 10.0, "absolute floor for the store's restart replay reduction")
	minCodec := flag.Float64("min-codec-speedup", 5.0, "absolute floor for the binary codec's store replay speedup")
	minShardScaling := flag.Float64("min-shard-scaling", 2.0, "absolute floor for any-peer throughput scaling at 4 sharded peers (speedup_4peer)")
	maxFailoverRegress := flag.Float64("max-failover-regress", 1.0, "max allowed fractional growth of the failover takeover time vs baseline")
	maxReplOverhead := flag.Float64("max-repl-overhead", 0.15, "absolute bound on the quorum-ack submit overhead fraction")
	maxTakeoverRegress := flag.Float64("max-takeover-regress", 1.0, "max allowed fractional growth of the replication takeover time vs baseline")
	minIsolation := flag.Float64("min-isolation", 0.6, "absolute floor for the worst 1x tenant's attained fraction of its fair share under a 10x aggressor")
	vdataBaselinePath := flag.String("vdata-baseline", "BENCH_vdata.json", "committed vdata baseline report")
	vdataCurrentPath := flag.String("vdata-current", "", "fresh vdata report to judge (enables the vdata gate)")
	minVdataHitRate := flag.Float64("min-vdata-hitrate", 0.9, "absolute floor for the warm-pass derivation hit rate")
	minVdataSpeedup := flag.Float64("min-vdata-speedup", 2.0, "absolute floor for the warm-pass elision speedup")
	minVdataRemote := flag.Float64("min-vdata-remote-speedup", 1.2, "absolute floor for the cross-peer reuse speedup over cold execution")
	flag.Parse()
	if *currentPath == "" && *storeCurrentPath == "" && *shardCurrentPath == "" && *replCurrentPath == "" && *tenantCurrentPath == "" && *vdataCurrentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: at least one of -current / -store-current / -shard-current / -repl-current / -tenant-current / -vdata-current is required")
		os.Exit(2)
	}
	failures := 0
	if *currentPath != "" {
		base, err := load(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
			os.Exit(2)
		}
		cur, err := load(*currentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: current: %v\n", err)
			os.Exit(2)
		}
		out, n := gate(base, cur, *maxRegress, *minSpeedup)
		fmt.Printf("== wire (%s) ==\n%s", *currentPath, out)
		if n == 0 {
			fmt.Printf("\nwire: OK (pipelined %.2fx >= %.1fx, ratios within %.0f%% of baseline)\n",
				cur.SpeedupPipelined, *minSpeedup, *maxRegress*100)
		}
		failures += n
	}
	if *storeCurrentPath != "" {
		base, err := loadStore(*storeBaselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: store baseline: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadStore(*storeCurrentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: store current: %v\n", err)
			os.Exit(2)
		}
		if *currentPath != "" {
			fmt.Println()
		}
		out, n := gateStore(base, cur, *maxRegress, *minReduction, *minCodec)
		fmt.Printf("== store (%s) ==\n%s", *storeCurrentPath, out)
		if n == 0 {
			fmt.Printf("\nstore: OK (reduction %.2fx >= %.1fx, resident %d/%d, within %.0f%% of baseline)\n",
				cur.ReplayReduction, *minReduction, cur.ResidentAfterSweep, cur.Flows, *maxRegress*100)
		}
		failures += n
	}
	if *shardCurrentPath != "" {
		base, err := loadShard(*shardBaselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: shard baseline: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadShard(*shardCurrentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: shard current: %v\n", err)
			os.Exit(2)
		}
		if *currentPath != "" || *storeCurrentPath != "" {
			fmt.Println()
		}
		out, n := gateShard(base, cur, *maxRegress, *minShardScaling, *maxFailoverRegress)
		fmt.Printf("== shard (%s) ==\n%s", *shardCurrentPath, out)
		if n == 0 {
			fmt.Printf("\nshard: OK (4-peer scaling %.2fx >= %.1fx, failover %.0fms, accepted %d, replayed 0)\n",
				cur.Speedup4, *minShardScaling, cur.FailoverMs, cur.AcceptedDuringFailover)
		}
		failures += n
	}
	if *replCurrentPath != "" {
		base, err := loadRepl(*replBaselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: repl baseline: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadRepl(*replCurrentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: repl current: %v\n", err)
			os.Exit(2)
		}
		if *currentPath != "" || *storeCurrentPath != "" || *shardCurrentPath != "" {
			fmt.Println()
		}
		out, n := gateRepl(base, cur, *maxReplOverhead, *maxTakeoverRegress)
		fmt.Printf("== repl (%s) ==\n%s", *replCurrentPath, out)
		if n == 0 {
			fmt.Printf("\nrepl: OK (overhead %.1f%% <= %.0f%%, takeover %.0fms, acked %d, lost 0, snapshots %d)\n",
				cur.QuorumOverheadFrac*100, *maxReplOverhead*100, cur.TakeoverMs,
				cur.AckedLiveFlows, cur.SnapshotsShipped)
		}
		failures += n
	}
	if *tenantCurrentPath != "" {
		base, err := loadTenant(*tenantBaselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: tenant baseline: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadTenant(*tenantCurrentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: tenant current: %v\n", err)
			os.Exit(2)
		}
		if *currentPath != "" || *storeCurrentPath != "" || *shardCurrentPath != "" || *replCurrentPath != "" {
			fmt.Println()
		}
		out, n := gateTenant(base, cur, *minIsolation)
		fmt.Printf("== tenant (%s) ==\n%s", *tenantCurrentPath, out)
		if n == 0 {
			fmt.Printf("\ntenant: OK (worst 1x attained %.2f >= %.2f, false rejections 0, breach %d, registry %d)\n",
				cur.MinFairAttained, *minIsolation, cur.BreachRejections, cur.RegistryTenants)
		}
		failures += n
	}
	if *vdataCurrentPath != "" {
		base, err := loadVdata(*vdataBaselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: vdata baseline: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadVdata(*vdataCurrentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: vdata current: %v\n", err)
			os.Exit(2)
		}
		if *currentPath != "" || *storeCurrentPath != "" || *shardCurrentPath != "" || *replCurrentPath != "" || *tenantCurrentPath != "" {
			fmt.Println()
		}
		out, n := gateVdata(base, cur, *maxRegress, *minVdataHitRate, *minVdataSpeedup, *minVdataRemote)
		fmt.Printf("== vdata (%s) ==\n%s", *vdataCurrentPath, out)
		if n == 0 {
			fmt.Printf("\nvdata: OK (hit rate %.2f >= %.2f, warm %.1fx, replayed %d/%d, remote %.1fx with %d hits)\n",
				cur.HitRate, *minVdataHitRate, cur.WarmSpeedup,
				cur.ReplayedEntries, cur.Entries, cur.RemoteSpeedup, cur.RemoteHits)
		}
		failures += n
	}
	if failures > 0 {
		fmt.Printf("\nbenchgate: %d gate failure(s) (max-regress %.0f%%)\n", failures, *maxRegress*100)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: OK")
}
