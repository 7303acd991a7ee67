// Command perfbench is the repository benchmark. One invocation runs one
// workload under both receive disciplines, LDLP and conventional, from
// a single goroutine, checks every output, and prints its metrics by
// name with their units; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload udp-echo-burst --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer metrics, the tracing overhead,
// and writes its spans as JSON lines. See README.md for the workloads,
// the metrics and what each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// scale sizes a run. The benchmark uses full; the package tests run
// every workload at tiny.
type scale struct {
	udpHosts, udpSocks int // client hosts, sockets per client host
	rrConns            int
	fleetNodes         int
	simSeeds           int     // placement seeds per rate per pass
	simDuration        float64 // simulated seconds per sim run
	setupReps          int     // netstack set-ups per run; setup_s is their median
	slices             int     // measured slices per network
	warmupOps          int     // untimed operations per network
	chunkOps           int64   // operations per wall-clock sample in fleet-gossip
}

var (
	full = scale{
		udpHosts: 4, udpSocks: 16, rrConns: 256, fleetNodes: 1000,
		simSeeds: 10, simDuration: 1, setupReps: 101, slices: 64,
		warmupOps: 4096, chunkOps: 4096,
	}
	tiny = scale{
		udpHosts: 2, udpSocks: 4, rrConns: 16, fleetNodes: 64,
		simSeeds: 1, simDuration: 0.05, setupReps: 2, slices: 2,
		warmupOps: 64, chunkOps: 16,
	}
)

// config is one invocation.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	spanDir  string
	spanFile string
	// corrupt, when > 0, makes the netstack servers corrupt every
	// corrupt-th reply; the package tests use it to prove the check.
	corrupt int
}

var workloads = map[string]func(config) (*report, error){
	"udp-echo-burst": func(c config) (*report, error) {
		// A round delivers about 64 frames: at most ~60 events per ring.
		return runNetstack(c, netWorkload{build: buildUDPEcho, harvest: 2, ring: 256})
	},
	"tcp-rr-churn": func(c config) (*report, error) {
		// About 10 events per ring per operation, plus ~60 for a tick's
		// burst of delayed ACKs.
		return runNetstack(c, netWorkload{build: buildTCPRR, harvest: 16, ring: 512})
	},
	"fleet-gossip": runFleetGossip,
	"paper-sim":    runPaperSim,
}

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names; the package tests keep the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ldlp.ops_per_s", "1/s"}, {"conv.ops_per_s", "1/s"},
	{"ldlp.latency_p50_us", "us"}, {"ldlp.latency_p99_us", "us"},
	{"conv.latency_p50_us", "us"}, {"conv.latency_p99_us", "us"},
	{"ldlp.allocs_per_op", "count"}, {"conv.allocs_per_op", "count"},
	{"setup_s", "s"}, {"heap_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"trace.ldlp_overhead_ops_per_s", "1/s"}, {"trace.ldlp_overhead_pct", "%"},
	{"trace.conv_overhead_ops_per_s", "1/s"}, {"trace.conv_overhead_pct", "%"},
	{"trace.spans", "count"},
	{"netstack.send_ns", "ns"}, {"netstack.recv_ns", "ns"},
	{"netstack.pump_ns_per_frame", "ns"}, {"netstack.tick_ns", "ns"},
	{"netstack.dial_ns", "ns"}, {"netstack.close_ns", "ns"},
	{"tcp.fastpath_ratio", "ratio"}, {"tcp.delayed_acks_per_op", "count"},
	{"tcp.retransmits", "count"}, {"netstack.drops", "count"},
	{"core.batch_mean", "count"}, {"core.batch_p99", "count"},
	{"core.queue_ops_per_frame", "count"},
	{"telemetry.events_per_frame", "count"},
	{"layer.device.self_ns", "ns"}, {"layer.ether.self_ns", "ns"},
	{"layer.ip.self_ns", "ns"}, {"layer.tcp.self_ns", "ns"},
	{"layer.udp.self_ns", "ns"}, {"layer.socket.self_ns", "ns"},
	{"mbuf.allocs_per_op", "count"}, {"mbuf.heap_fallback_ratio", "ratio"},
	{"mbuf.overflow_ratio", "ratio"}, {"mbuf.in_use_end", "count"},
	{"flowtable.cache_hit_ratio", "ratio"}, {"flowtable.probe_p99", "count"},
	{"flowtable.lookups_per_op", "count"},
	{"fleet.new_s", "s"}, {"fleet.run_s", "s"}, {"fleet.events", "count"},
	{"fleet.ns_per_event", "ns"}, {"fleet.batches", "count"},
	{"fleet.max_batch", "count"}, {"fleet.inbox_drops", "count"},
	{"faults.dropped", "count"}, {"faults.duplicated", "count"},
	{"gossip.msgs_sent", "count"}, {"gossip.rounds_per_step", "count"},
	{"gossip.delivery_p99_ms", "ms"}, {"gossip.ldlp_latency_ratio", "ratio"},
	{"sim.new_s", "s"}, {"sim.ns_per_msg", "ns"}, {"traffic.ns_per_arrival", "ns"},
	{"sim.imisses_per_msg", "count"}, {"sim.dmisses_per_msg", "count"},
	{"sim.mean_batch", "count"}, {"sim.latency_p50_us", "us"},
	{"gc.cycles", "count"}, {"gc.pause_total_ms", "ms"}, {"gc.alloc_mb_per_kop", "MB"},
	{"calib.ldlp.speed", "ratio"}, {"calib.conv.speed", "ratio"},
	{"calib.ldlp.wall_ops_per_s", "1/s"}, {"calib.conv.wall_ops_per_s", "1/s"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, full)) }

// run parses the arguments, runs the workload and prints the result.
// It returns the exit code: 0 for a correct run, 1 for a run whose
// outputs were wrong (the result is still printed), 2 when no result
// could be produced.
func run(args []string, stdout, stderr io.Writer, sc scale) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	spanDir := fs.String("spans", ".bench_build/perfbench/spans", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// One goroutine drives the load, on one processor. The collector
	// runs under its default settings and its background work shares
	// that processor, so what allocation costs lands in the measured
	// time, not on a second core whose availability the box decides.
	runtime.GOMAXPROCS(1)
	ref.sensitivity = refSensitivity[*name]
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, scale: sc,
		spanDir: *spanDir, spanFile: fmt.Sprintf("%s-seed%d.jsonl", *name, *seed),
	}
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	res, err := finish(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if !cfg.trace {
		// The calibration behind the end-to-end times, for the record.
		for _, n := range []string{"calib.ldlp.speed", "calib.conv.speed", "calib.ldlp.wall_ops_per_s", "calib.conv.wall_ops_per_s"} {
			if m, ok := rep.metrics[n]; ok {
				fmt.Fprintf(stderr, "perfbench: %s %.6g %s\n", n, m.Value, m.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finish selects the metrics the run reports — every end-to-end metric
// untraced, every per-layer metric traced, 0 for a layer the workload
// does not run — and decides correctness.
func finish(rep *report, trace bool) (result, error) {
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric),
	}
	if rep.attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	rep.set("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := rep.metrics[d.name]
		switch {
		case !ok && !trace:
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case !ok:
			m = metric{Value: 0, Unit: d.unit}
		case m.Unit != d.unit:
			return res, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		res.Metrics[d.name] = m
	}
	return res, nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
