package main

import (
	"strings"
	"testing"

	"datagridflow/internal/experiments"
	"datagridflow/internal/loadgen"
)

func report(pipelined, batch float64) *loadgen.Report {
	return &loadgen.Report{
		Serial:           loadgen.ModeResult{Mode: "serial", RPS: 400},
		Pipelined:        loadgen.ModeResult{Mode: "pipelined", RPS: 400 * pipelined, P99ms: 5},
		AsyncSerial:      loadgen.ModeResult{Mode: "async-serial", RPS: 7000},
		Batch:            loadgen.ModeResult{Mode: "batch", RPS: 7000 * batch},
		AsyncCodecBin:    loadgen.ModeResult{Mode: "async-codec-bin", RPS: 3000},
		BatchCodecBin:    loadgen.ModeResult{Mode: "batch-codec-bin", RPS: 4000},
		SpeedupPipelined: pipelined,
		SpeedupBatch:     batch,
	}
}

func storeReport(reduction, codecSpeedup float64) *experiments.StoreBenchReport {
	return &experiments.StoreBenchReport{
		Flows:                 4000,
		JournalRecords:        36000,
		StoreReplayRecords:    1200,
		ReplayReduction:       reduction,
		ResidentAfterSweep:    10,
		ResidentAfterRecovery: 10,
		ResurrectedOK:         1,
		CodecReplayRecords:    4000,
		CodecJSONOpenMs:       260,
		CodecBinOpenMs:        260 / codecSpeedup,
		CodecReplaySpeedup:    codecSpeedup,
	}
}

func TestGatePasses(t *testing.T) {
	table, failures := gate(report(6.0, 1.1), report(5.8, 1.05), 0.20, 3.0)
	if failures != 0 {
		t.Fatalf("clean run failed the gate:\n%s", table)
	}
	if !strings.Contains(table, "speedup/pipelined") {
		t.Errorf("table missing gated row:\n%s", table)
	}
	if !strings.Contains(table, "speedup/batch") {
		t.Errorf("table missing batch ratio row:\n%s", table)
	}
}

func TestGateCatchesRatioRegression(t *testing.T) {
	// Pipelined ratio drops 40% — beyond the 20% allowance.
	table, failures := gate(report(6.0, 1.1), report(3.6, 1.1), 0.20, 3.0)
	if failures == 0 {
		t.Fatalf("40%% ratio drop passed the gate:\n%s", table)
	}
	if !strings.Contains(table, "REGRESSION") {
		t.Errorf("table does not flag the regression:\n%s", table)
	}
}

func TestGateEnforcesSpeedupFloor(t *testing.T) {
	// Within 20% of a weak baseline but below the absolute 3x floor.
	table, failures := gate(report(3.2, 1.1), report(2.7, 1.1), 0.20, 3.0)
	if failures == 0 {
		t.Fatalf("sub-floor speedup passed the gate:\n%s", table)
	}
	if !strings.Contains(table, "floor") {
		t.Errorf("table does not report the floor violation:\n%s", table)
	}
}

func TestGateIgnoresAbsoluteRPSSwings(t *testing.T) {
	// Same ratios on a machine 10x slower: absolute RPS collapses but
	// the gate — which judges ratios only — must pass.
	slow := report(6.0, 1.1)
	slow.Serial.RPS = 40
	slow.Pipelined.RPS = 240
	slow.Batch.RPS = 700
	slow.AsyncCodecBin.RPS = 300
	slow.BatchCodecBin.RPS = 400
	table, failures := gate(report(6.0, 1.1), slow, 0.20, 3.0)
	if failures != 0 {
		t.Fatalf("absolute RPS drop failed the ratio gate:\n%s", table)
	}
}

func TestStoreGatePasses(t *testing.T) {
	table, failures := gateStore(storeReport(30, 8), storeReport(29, 7.8), 0.20, 10.0, 5.0)
	if failures != 0 {
		t.Fatalf("clean store run failed the gate:\n%s", table)
	}
	if !strings.Contains(table, "codec/replay") {
		t.Errorf("table missing codec replay row:\n%s", table)
	}
}

func TestStoreGateEnforcesCodecFloor(t *testing.T) {
	table, failures := gateStore(storeReport(30, 4.5), storeReport(30, 4.5), 0.20, 10.0, 5.0)
	if failures == 0 {
		t.Fatalf("sub-floor codec replay speedup passed the gate:\n%s", table)
	}
	if !strings.Contains(table, "codec replay speedup") {
		t.Errorf("table does not report the codec floor violation:\n%s", table)
	}
}

func tenantReport(minFair float64, falseRej, breach, tenants int) *loadgen.TenantReport {
	return &loadgen.TenantReport{
		RegistryTenants:        tenants,
		RegistryBytesPerTenant: 130,
		TotalFlows:             800,
		MinFairAttained:        minFair,
		FalseRejections:        falseRej,
		BreachRejections:       breach,
		Lanes: []loadgen.TenantLane{
			{Name: "aggressor", Weight: 10, Attained: 1.0},
			{Name: "fair0", Weight: 1, Attained: minFair},
		},
	}
}

func TestTenantGatePasses(t *testing.T) {
	table, failures := gateTenant(tenantReport(0.95, 0, 20, 120000), tenantReport(0.92, 0, 18, 120000), 0.6)
	if failures != 0 {
		t.Fatalf("clean tenant run failed the gate:\n%s", table)
	}
	if !strings.Contains(table, "isolation/worst-1x") {
		t.Errorf("table missing isolation row:\n%s", table)
	}
}

func TestTenantGateEnforcesIsolationFloor(t *testing.T) {
	table, failures := gateTenant(tenantReport(0.95, 0, 20, 120000), tenantReport(0.4, 0, 20, 120000), 0.6)
	if failures == 0 {
		t.Fatalf("starved 1x tenant passed the gate:\n%s", table)
	}
	if !strings.Contains(table, "starvation") {
		t.Errorf("table does not report the starvation:\n%s", table)
	}
}

func TestTenantGateCatchesQuotaDefects(t *testing.T) {
	// A false rejection in the steady phase and a dead positive control
	// must each fail independently.
	if table, failures := gateTenant(tenantReport(0.95, 0, 20, 120000), tenantReport(0.95, 3, 20, 120000), 0.6); failures == 0 {
		t.Fatalf("false rejections passed the gate:\n%s", table)
	}
	if table, failures := gateTenant(tenantReport(0.95, 0, 20, 120000), tenantReport(0.95, 0, 0, 120000), 0.6); failures == 0 {
		t.Fatalf("dead quota enforcement passed the gate:\n%s", table)
	}
	if table, failures := gateTenant(tenantReport(0.95, 0, 20, 120000), tenantReport(0.95, 0, 20, 50000), 0.6); failures == 0 {
		t.Fatalf("under-scale registry passed the gate:\n%s", table)
	}
}

func vdataReport(hitRate, warm, remote float64, entries, replayed, hits int) *loadgen.VdataReport {
	return &loadgen.VdataReport{
		Flows: entries, StepLatency: "20ms",
		ColdMs: 640, WarmMs: 640 / warm, HitRate: hitRate, WarmSpeedup: warm,
		Entries: entries, ReplayedEntries: replayed,
		RemoteColdMs: 640, RemoteMs: 640 / remote, RemoteHits: hits, RemoteSpeedup: remote,
	}
}

func TestVdataGatePasses(t *testing.T) {
	table, failures := gateVdata(vdataReport(1, 400, 150, 32, 32, 32),
		vdataReport(0.97, 380, 140, 32, 32, 32), 0.20, 0.9, 2.0, 1.2)
	if failures != 0 {
		t.Fatalf("clean vdata run failed the gate:\n%s", table)
	}
	if !strings.Contains(table, "elision/warm-speedup") {
		t.Errorf("table missing warm-speedup row:\n%s", table)
	}
}

func TestVdataGateEnforcesFloors(t *testing.T) {
	base := vdataReport(1, 400, 150, 32, 32, 32)
	// Each claim must fail independently: missed hits, unpaid elision,
	// lost durability, incomplete fleet reuse, reuse slower than cold.
	if table, failures := gateVdata(base, vdataReport(0.5, 400, 150, 32, 32, 32), 0.20, 0.9, 2.0, 1.2); failures == 0 {
		t.Fatalf("sub-floor hit rate passed the gate:\n%s", table)
	}
	if table, failures := gateVdata(base, vdataReport(1, 1.5, 150, 32, 32, 32), 0.20, 0.9, 2.0, 1.2); failures == 0 {
		t.Fatalf("sub-floor warm speedup passed the gate:\n%s", table)
	}
	if table, failures := gateVdata(base, vdataReport(1, 400, 150, 32, 20, 32), 0.20, 0.9, 2.0, 1.2); failures == 0 {
		t.Fatalf("lost replay entries passed the gate:\n%s", table)
	}
	if table, failures := gateVdata(base, vdataReport(1, 400, 150, 32, 32, 5), 0.20, 0.9, 2.0, 1.2); failures == 0 {
		t.Fatalf("incomplete remote reuse passed the gate:\n%s", table)
	}
	if table, failures := gateVdata(base, vdataReport(1, 400, 0.8, 32, 32, 32), 0.20, 0.9, 2.0, 1.2); failures == 0 {
		t.Fatalf("reuse slower than cold passed the gate:\n%s", table)
	}
}

func TestVdataGateCatchesRatioRegression(t *testing.T) {
	table, failures := gateVdata(vdataReport(1, 400, 150, 32, 32, 32),
		vdataReport(1, 100, 150, 32, 32, 32), 0.20, 0.9, 2.0, 1.2)
	if failures == 0 {
		t.Fatalf("75%% warm-speedup drop passed the gate:\n%s", table)
	}
	if !strings.Contains(table, "REGRESSION") {
		t.Errorf("table does not flag the regression:\n%s", table)
	}
}
