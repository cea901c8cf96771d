// Command perfbench is the repository's benchmark: it builds the
// production configuration of Sirpent from public APIs, drives one of
// three workloads for a fixed time, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of
// a traced run) as named values with units. README.md in this
// directory explains the workloads and every metric.
//
//	perfbench -workload mesh-datagram -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}.
// The exit code is 0 only when every check passed and no operation
// failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"goodput_MBps", "MB/s"},
	{"lat_p50_us", "us"},
	{"cpu_ms_per_MB", "ms/MB"},
	{"mem_peak_MB", "MB"},
}

// perLayer are the traced run's metrics, named after the modules they
// measure. A workload that does not use a layer reports 0 for it and
// prints why.
var perLayer = []metricDef{
	{"directory.routes_us", "us"},
	{"directory.queries", "count"},
	{"token.issue_us", "us"},
	{"token.check_ns", "ns"},
	{"token.verifies", "count"},
	{"token.hit_ratio", "ratio"},
	{"token.authorized", "count"},
	{"viper.encode_ns", "ns"},
	{"viper.decode_ns", "ns"},
	{"viper.overhead_bytes_per_pkt", "B"},
	{"dataplane.hop_ns", "ns"},
	{"dataplane.forwarded", "count"},
	{"dataplane.hops_per_pkt", "count"},
	{"dataplane.drops_queue_full", "count"},
	{"dataplane.drops_other", "count"},
	{"livenet.send_us_p50", "us"},
	{"livenet.send_us_p99", "us"},
	{"livenet.transit_us_p50", "us"},
	{"livenet.lat_p99_us", "us"},
	{"livenet.allocs_per_pkt", "count"},
	{"livenet.link_drops", "count"},
	{"livenet.cpu_ns_per_pkt", "ns"},
	{"livenet.substrate_ns_per_pkt", "ns"},
	{"udpnet.encapsulated", "count"},
	{"udpnet.decapsulated", "count"},
	{"udpnet.send_errors", "count"},
	{"udpnet.dropped", "count"},
	{"udpnet.decode_errors", "count"},
	{"udpnet.attach_us", "us"},
	{"vmtp.calls_completed", "count"},
	{"vmtp.calls_failed", "count"},
	{"vmtp.retransmissions", "count"},
	{"vmtp.selective_resends", "count"},
	{"vmtp.dup_requests", "count"},
	{"vmtp.queue_drops", "count"},
	{"vmtp.retx_per_MB", "1/MB"},
	{"vmtp.group_rtt_p50_us", "us"},
	{"vmtp.group_rtt_p99_us", "us"},
	{"gateway.start_us", "us"},
	{"gateway.dial_us", "us"},
	{"gateway.rpc_p99_us", "us"},
	{"gateway.write_us_p99", "us"},
	{"gateway.groups_sent", "count"},
	{"gateway.resets", "count"},
	{"gateway.socks_errors", "count"},
	{"gateway.open_failures", "count"},
	{"gateway.billed_bytes_per_byte", "ratio"},
	{"ledger.billed_packets", "count"},
	{"ledger.billed_bytes", "B"},
	{"ledger.reconcile_wait_ms", "ms"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.goroutines_peak", "count"},
	{"bench.slot_reclaims", "count"},
	{"bench.fail_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// Run shape shared by the workloads.
const (
	// rounds is how many times a run builds a fresh configuration, warms
	// it up, measures it for a share of the run's seconds and tears it
	// down. Each metric is the median over rounds: on 2 cores a chain's
	// goroutines settle into a schedule that persists for the chain's
	// life, so independent rounds are what make runs repeatable. A
	// traced run alternates untraced and traced rounds.
	rounds = 10
	// warmup runs the workload untimed after setup, so caches fill and
	// lazy set-up finishes before measuring.
	warmup = 300 * time.Millisecond
	// traceEvery samples one datagram in this many for send and
	// delivery spans.
	traceEvery = 16
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	measure time.Duration // total measured time; a traced run splits it between its two phases
	traced  bool
	spanOut string // file the traced run's spans are written to; "" keeps them in memory only
	// lossRatio injects random loss on the R1–R2 link of the datagram
	// chain. Only the self-test sets it; the benchmark never does.
	lossRatio float64
}

// result collects one run's metrics, operation counts and check
// failures.
type result struct {
	vals      map[string]float64
	notes     map[string]string // metric -> why the workload does not measure it
	attempted uint64
	failed    uint64
	problems  []string
	info      []string // human-readable lines printed before the result
}

func newResult() *result {
	return &result{vals: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64) { r.vals[name] = v }

// unavailable reports 0 for each named metric, with the reason.
func (r *result) unavailable(why string, names ...string) {
	for _, n := range names {
		r.vals[n] = 0
		r.notes[n] = why
	}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) *result{
	"mesh-datagram":   func(c runConfig) *result { return runDatagram(c, false) },
	"tunnel-datagram": func(c runConfig) *result { return runDatagram(c, true) },
	"gateway-mixed":   runGateway,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finish checks that every metric of the run's set is present and
// finite, and assembles the result line.
func finish(r *result, traced bool) jsonResult {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s not measured", d.name)
			continue
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if out.Attempted == 0 {
		r.problem("no operation attempted")
		out.Attempted = 1
	}
	out.Correct = len(r.problems) == 0
	return out
}

func main() {
	workload := flag.String("workload", "", "workload name: mesh-datagram, tunnel-datagram or gateway-mixed")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traced)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	if cfg.traced {
		if exe, err := os.Executable(); err == nil {
			cfg.spanOut = filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-seed%d.tsv", *workload, *seed))
		}
	}

	prov := provenance(*workload, *seed, *seconds, cfg.traced)
	r := run(cfg)
	res := finish(r, cfg.traced)

	blob, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", blob)
	for _, line := range r.info {
		fmt.Println(line)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-32s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	var unavailable []string
	for name := range r.notes {
		unavailable = append(unavailable, name)
	}
	sort.Strings(unavailable)
	for _, name := range unavailable {
		fmt.Printf("not measured on %s: %s (%s)\n", *workload, name, r.notes[name])
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}
