// Command dfmsbench is the repository benchmark of the DfMS: it drives
// the real matrix engine, wire server and tenancy layers through their
// public Go APIs on one of two workloads, checks every output for
// correctness, and prints the metrics named in BENCHMARK.json at the
// root of the repository. Traced runs add the store, replication and
// shard layers through a durable two-peer fleet; dfmsbench/LEDGER.md
// documents every metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash dfmsbench/run.sh --workload ilm-sweep --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it is a separate run that records spans around the benchmark's own
// calls into each layer, reads the engines' obs counters, replays
// captured inputs through single layers and prints the per-layer ledger.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the DfMS sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"flows_per_s", "1/s"},
	{"flow_p50_ms", "ms"},
	{"flow_p99_ms", "ms"},
	{"status_p50_ms", "ms"},
	{"status_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_kb_per_flow", "KiB"},
	{"setup_s", "s"},
}

// perLayer is the ledger a traced run reports, on every workload.
var perLayer = []metricDef{
	{"wire.submit_rtt_us", "us"},
	{"wire.status_rtt_us", "us"},
	{"wire.overhead_us", "us"},
	{"wire.bytes_per_op", "B"},
	{"wire.mux_frame_ns", "ns"},
	{"wire.mux_frame_allocs", "count"},
	{"codec.request_encode_ns", "ns"},
	{"codec.request_encode_allocs", "count"},
	{"codec.request_decode_ns", "ns"},
	{"codec.request_decode_allocs", "count"},
	{"codec.response_encode_ns", "ns"},
	{"codec.response_decode_ns", "ns"},
	{"codec.response_decode_allocs", "count"},
	{"dgl.validate_ns", "ns"},
	{"dgl.validate_allocs", "count"},
	{"dgl.marshal_us", "us"},
	{"dgl.marshal_allocs", "count"},
	{"tenant.verify_ns", "ns"},
	{"tenant.allow_submit_ns", "ns"},
	{"scheduler.admission_ns", "ns"},
	{"scheduler.queue_depth_mean", "count"},
	{"matrix.submit_us", "us"},
	{"matrix.step_us", "us"},
	{"matrix.step_allocs", "count"},
	{"matrix.step_bytes", "B"},
	{"matrix.status_detail_us", "us"},
	{"dgms.ingest_us", "us"},
	{"dgms.replicate_us", "us"},
	{"dgms.verify_us", "us"},
	{"dgms.setmeta_us", "us"},
	{"provenance.records_per_flow", "count"},
	{"provenance.append_ns", "ns"},
	{"obs.labelled_counter_ns", "ns"},
	{"obs.labelled_counter_allocs", "count"},
	{"store.append_us", "us"},
	{"store.records_per_fsync", "count"},
	{"store.fsyncs_per_flow", "count"},
	{"store.bytes_per_flow", "B"},
	{"replica.encode_block_us", "us"},
	{"replica.decode_block_us", "us"},
	{"replica.apply_us", "us"},
	{"replica.frames_per_flow", "count"},
	{"replica.ack_timeouts", "count"},
	{"shard.routed_frac", "ratio"},
	{"shard.route_hop_us", "us"},
	{"shard.owner_of_ns", "ns"},
	{"trace.flows_per_s", "1/s"},
	{"trace.spans", "count"},
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// work is the checkout-local directory for store segments, spans
	// and the run record; the benchmark writes nowhere else.
	work string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness checks; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
	// samples gives the sample count behind each percentile metric.
	samples map[string]int
	// info is the run environment and workload facts, recorded with the
	// result but not compared between runs.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, info: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"ilm-sweep":     runILM,
	"submit-status": runSubmitStatus,
}

func main() {
	var cfg config
	var trace int
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	flag.StringVar(&cfg.workload, "workload", "", "workload: ilm-sweep or submit-status")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same request stream")
	flag.IntVar(&cfg.seconds, "seconds", 8, "measured seconds of load")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer ledger instead of end-to-end metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "dfmsbench: need --workload ilm-sweep|submit-status, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.work = filepath.Join(*root, ".bench_build", "work")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dfmsbench:", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfmsbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "dfmsbench:", err)
		os.Exit(1)
	}
}

// report prints the human-readable summary, writes the run record and
// prints the result line last.
func report(cfg config, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		line := fmt.Sprintf("%-30s %14.4f %s", d.name, v, d.unit)
		if n, ok := out.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	out.info["peak_rss_mb"] = peakRSS()
	errorFrac := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Printf("%-30s %14.6f ratio  (%d of %d operations)\n", "error_frac", errorFrac, out.failed, out.attempted)
	keys := make([]string, 0, len(out.info))
	for k := range out.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("info %-25s %v\n", k, out.info[k])
	}
	for _, p := range out.problems {
		fmt.Println("check failed:", p)
	}
	correct := len(out.problems) == 0 && out.failed == 0
	record := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "error_frac": errorFrac,
		"metrics": out.metrics, "samples": out.samples, "info": out.info, "problems": out.problems,
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.work, name), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
