// Command sirpent-bench regenerates the paper's evaluation: every
// experiment table in the reproduction index (DESIGN.md §2), printed with
// its paper claim and shape checks.
//
// Usage:
//
//	sirpent-bench            # run everything
//	sirpent-bench -run E03   # one experiment
//	sirpent-bench -list      # list experiment IDs
//	sirpent-bench -live      # livenet forwarding benchmark -> BENCH_livenet.json
//	sirpent-bench -trace     # replay seeded topologies with per-hop traces
//	sirpent-bench -ledger    # token-authorized billing cross-check
//	sirpent-bench -gateway   # SOCKS relay path benchmark -> BENCH_gateway.json
//
// Any mode combines with -cpuprofile and/or -memprofile to capture
// pprof-format profiles of the selected workload:
//
//	sirpent-bench -live -live-dur 250ms -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
//
// Trace mode replays the conformance harness's seeded scenarios with
// hop-level tracing enabled on both substrates, prints a per-hop timing
// table for every flow (narrow to one with -trace-flow), and exits
// non-zero if any flow's path diverges between netsim and livenet.
//
// Ledger mode runs the same seeded scenarios with every router
// token-guarded and each flow billed to a per-source account, prints the
// per-account billing table from each substrate, and exits non-zero if
// either ledger fails reconciliation against its forwarding plane or
// the substrates bill differently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/livenet"
)

func main() {
	runID := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	live := flag.Bool("live", false, "run the livenet forwarding benchmark instead of the experiment tables")
	liveOut := flag.String("live-out", "BENCH_livenet.json", "output path for -live results")
	liveDur := flag.Duration("live-dur", time.Second, "measurement duration per -live topology")
	traceMode := flag.Bool("trace", false, "replay seeded topologies with hop-level tracing and print per-hop tables")
	traceSeeds := flag.String("trace-seeds", "1,2,3", "comma-separated scenario seeds for -trace")
	traceFlow := flag.Uint64("trace-flow", 0, "print only this flow ID in -trace output (0: all flows)")
	ledgerMode := flag.Bool("ledger", false, "run token-authorized seeded scenarios on both substrates and cross-check per-account billing")
	ledgerSeeds := flag.String("ledger-seeds", "1,2,3", "comma-separated scenario seeds for -ledger")
	gatewayMode := flag.Bool("gateway", false, "benchmark the SOCKS gateway relay path over chain lengths")
	gatewayOut := flag.String("gateway-out", "BENCH_gateway.json", "output path for -gateway results")
	gatewayBytes := flag.Int64("gateway-bytes", 16<<20, "bytes to transfer each way per -gateway run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected workload to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	// The workload body returns an exit code instead of calling os.Exit
	// so profile teardown (StopCPUProfile, the heap snapshot) always
	// runs — os.Exit skips deferred writes.
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	code := func() int {
		if *live {
			if err := runLive(*liveOut, *liveDur); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 2
			}
			return 0
		}

		if *traceMode {
			if err := runTrace(*traceSeeds, *traceFlow); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
			return 0
		}

		if *gatewayMode {
			if err := runGateway(*gatewayOut, *gatewayBytes); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
			return 0
		}

		if *ledgerMode {
			if err := runLedger(*ledgerSeeds); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
			return 0
		}

		ids := experiments.IDs()
		if *runID != "" {
			ids = strings.Split(*runID, ",")
		}

		failed := 0
		for _, id := range ids {
			t, err := experiments.Run(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 2
			}
			t.Fprint(os.Stdout)
			failed += len(t.Failed())
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%d shape checks FAILED\n", failed)
			return 1
		}
		return 0
	}()
	stopProfiles()
	os.Exit(code)
}

// startProfiles begins CPU profiling and arranges a heap snapshot at
// stop; either path may be empty. The returned stop must run before
// os.Exit.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
			fmt.Printf("wrote %s\n", cpu)
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", mem)
	}, nil
}

// printLive renders one result row for the console.
func printLive(r livenet.BenchResult) {
	fmt.Printf("%-12s batch=%-3d %-8s hops=%-2d flows=%-2d gmp=%d  %10.0f pkts/s  %8.1f ns/hop  %6.3f allocs/pkt\n",
		r.Topology, r.Batch, r.Injection, r.Hops, r.Flows, r.GOMAXPROCS, r.PktsPerSec, r.NsPerHop, r.AllocsPerPkt)
}

// runLive measures the forwarding fast path — hop chains of increasing
// length, a 4×4 router mesh, a flow-count sweep through a shared trunk,
// a GOMAXPROCS sweep, and the isolated-hop kernel at the one-frame and
// default batch sizes — writing every row as JSON.
func runLive(out string, dur time.Duration) error {
	var results []livenet.BenchResult
	add := func(r livenet.BenchResult) {
		printLive(r)
		results = append(results, r)
	}
	for _, hops := range []int{1, 2, 4, 8, 12, 16} {
		add(livenet.BenchChain(hops, dur))
	}
	// Prepared injection strips the per-packet endpoint encode/decode so
	// short chains expose the network cost instead of the hosts'.
	for _, hops := range []int{1, 4, 12} {
		add(livenet.BenchChainPrepared(hops, dur))
	}
	add(livenet.BenchMesh(4, 4, dur))
	for _, flows := range []int{1, 2, 4, 8} {
		add(livenet.BenchFan(4, flows, dur))
	}
	// Isolated hop: the router kernel with no endpoint overhead.
	// Iteration count chosen so the measurement takes ~dur.
	for _, batch := range []int{1, livenet.DefaultBatchSize} {
		add(livenet.BenchHop(batch, 1<<21))
	}
	// GOMAXPROCS sweep on the 4-hop chain: on a multi-core box shard
	// workers spread across Ps; on one core the curve is flat.
	prev := runtime.GOMAXPROCS(0)
	for _, gmp := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(gmp)
		add(livenet.BenchChain(4, dur))
	}
	runtime.GOMAXPROCS(prev)

	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
