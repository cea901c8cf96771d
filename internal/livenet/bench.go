package livenet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ethernet"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/viper"
)

// BenchResult is one forwarding-benchmark measurement, serialized into
// BENCH_livenet.json by cmd/sirpent-bench.
//
// Allocation cost is reported in two separately-measured columns, after
// the earlier single allocs_per_hop column proved misleading (it read
// ~7.0 at 1 hop and ~0.58 at 12 — the same per-packet injection
// overhead divided by ever more hops):
//
//   - AllocsPerPkt: process-wide mallocs per delivered packet over the
//     end-to-end run — host-side encode and injection, every router
//     traversal, and delivery-side decode together. Depends on hops.
//   - AllocsPerHop: the router hop in isolation, measured by driving the
//     forward path directly (topology "isolated-hop"); 0 in steady
//     state. Does not depend on hops; end-to-end rows leave it 0.
type BenchResult struct {
	Topology     string  `json:"topology"`
	Batch        int     `json:"batch"`     // frames per ring handoff (WithBatchSize)
	Injection    string  `json:"injection"` // "encode" (Host.Send), "prepared" (Sender), or "none" (isolated hop)
	Hops         int     `json:"hops"`
	Flows        int     `json:"flows"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Packets      uint64  `json:"packets"`
	Seconds      float64 `json:"seconds"`
	PktsPerSec   float64 `json:"pkts_per_sec"`
	NsPerHop     float64 `json:"ns_per_hop"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	AllocsPerHop float64 `json:"allocs_per_hop,omitempty"`
}

// benchFlow is one source→sink stream for the benchmark runner.
type benchFlow struct {
	src   *Host
	route []viper.Segment
}

// chainRoute builds the source route for a host→r1→…→rN→host chain
// where every router forwards on outPort.
func chainRoute(hops int, hostPort, outPort uint8) []viper.Segment {
	route := []viper.Segment{{Port: hostPort}}
	for i := 0; i < hops; i++ {
		route = append(route, viper.Segment{Port: outPort, Flags: viper.FlagVNT})
	}
	return append(route, viper.Segment{Port: viper.PortLocal})
}

// runFlows drives every flow with a bounded in-flight window for roughly
// the given duration, then drains, returning delivered packets, elapsed
// time, and the process-wide malloc delta (runtime.MemStats.Mallocs, so
// concurrent runtime activity is included — run flows one benchmark at a
// time). With prepared injection each flow sends through a Sender and
// sinks count raw frames, so endpoint overhead drops out of the
// measurement; otherwise packets go through the full Host.Send encode
// and endpoint-dispatch delivery.
func runFlows(flows []benchFlow, sinks []*Host, d time.Duration, window int, prepared bool) (uint64, time.Duration, uint64) {
	var delivered atomic.Uint64
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	payload := []byte("sirpent-bench")
	count := func() {
		delivered.Add(1)
		tokens <- struct{}{}
	}
	send := make([]func() error, len(flows))
	for i, f := range flows {
		if prepared {
			snd, err := f.src.NewSender(f.route, len(payload))
			if err != nil {
				panic(err) // static benchmark route; an error is a harness bug
			}
			send[i] = func() error { return snd.Send(payload) }
		} else {
			f := f
			send[i] = func() error { return f.src.Send(f.route, payload) }
		}
	}
	for _, s := range sinks {
		if prepared {
			s.SetRawHandler(func([]byte) { count() })
		} else {
			s.Handle(0, func(Delivery) { count() })
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range flows {
		snd := send[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-tokens:
				}
				if snd() != nil {
					return
				}
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	// Drain in-flight packets so elapsed covers every counted delivery.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if len(tokens) == window {
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return delivered.Load(), elapsed, ms1.Mallocs - ms0.Mallocs
}

// BenchChain measures forwarding through a linear chain of hops routers
// (host → r1 → … → rN → host) for roughly duration d.
func BenchChain(hops int, d time.Duration) BenchResult {
	return benchChain(hops, d, false)
}

// BenchChainPrepared is BenchChain with prepared injection: packets
// enter through a Sender (the wire image encoded once) and leave
// through a raw sink tap, so the row measures the network — links,
// routers, hop kernel — without the per-packet endpoint encode/decode
// that dominates short chains.
func BenchChainPrepared(hops int, d time.Duration) BenchResult {
	return benchChain(hops, d, true)
}

func benchChain(hops int, d time.Duration, prepared bool) BenchResult {
	n := NewNetwork()
	defer n.Stop()
	routers := make([]*Router, hops)
	for i := range routers {
		routers[i] = n.NewRouter(fmt.Sprintf("r%d", i))
	}
	src := n.NewHost("src")
	dst := n.NewHost("dst")
	n.Connect(src, 1, routers[0], 1, WithDepth(64))
	for i := 1; i < hops; i++ {
		n.Connect(routers[i-1], 2, routers[i], 1, WithDepth(64))
	}
	n.Connect(routers[hops-1], 2, dst, 1, WithDepth(64))

	flows := []benchFlow{{src: src, route: chainRoute(hops, 1, 2)}}
	pkts, elapsed, mallocs := runFlows(flows, []*Host{dst}, d, 64, prepared)
	return result("chain", prepared, hops, 1, pkts, elapsed, mallocs)
}

// BenchMesh measures aggregate forwarding over a rows×cols router mesh:
// one flow per row, entering at the left column and exiting at the
// right, all rows concurrent. Packets traverse cols routers.
func BenchMesh(rows, cols int, d time.Duration) BenchResult {
	n := NewNetwork()
	defer n.Stop()
	// Ports: 1 = left (host or west neighbor), 2 = right, 3 = up, 4 = down.
	grid := make([][]*Router, rows)
	for i := range grid {
		grid[i] = make([]*Router, cols)
		for j := range grid[i] {
			grid[i][j] = n.NewRouter(fmt.Sprintf("r%d.%d", i, j))
		}
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				n.Connect(grid[i][j], 2, grid[i][j+1], 1, WithDepth(64))
			}
			if i+1 < rows {
				n.Connect(grid[i][j], 4, grid[i+1][j], 3, WithDepth(64))
			}
		}
	}
	flows := make([]benchFlow, 0, rows)
	sinks := make([]*Host, 0, rows)
	for i := 0; i < rows; i++ {
		src := n.NewHost(fmt.Sprintf("src%d", i))
		dst := n.NewHost(fmt.Sprintf("dst%d", i))
		n.Connect(src, 1, grid[i][0], 1, WithDepth(64))
		n.Connect(grid[i][cols-1], 2, dst, 1, WithDepth(64))
		flows = append(flows, benchFlow{src: src, route: chainRoute(cols, 1, 2)})
		sinks = append(sinks, dst)
	}
	pkts, elapsed, mallocs := runFlows(flows, sinks, d, 64, false)
	return result(fmt.Sprintf("mesh%dx%d", rows, cols), false, cols, rows, pkts, elapsed, mallocs)
}

// BenchFan measures flow-count scaling: `flows` independent host pairs
// share one chain of `hops` routers, each flow entering the first router
// and leaving the last on its own port pair, so every trunk link carries
// the aggregate. Each router runs one shard per flow, spreading the
// per-flow ingress ports across workers.
func BenchFan(hops, flows int, d time.Duration) BenchResult {
	n := NewNetwork(WithShards(flows))
	defer n.Stop()
	routers := make([]*Router, hops)
	for i := range routers {
		routers[i] = n.NewRouter(fmt.Sprintf("r%d", i))
	}
	for i := 1; i < hops; i++ {
		n.Connect(routers[i-1], 2, routers[i], 1, WithDepth(64))
	}
	bf := make([]benchFlow, 0, flows)
	sinks := make([]*Host, 0, flows)
	for i := 0; i < flows; i++ {
		src := n.NewHost(fmt.Sprintf("src%d", i))
		dst := n.NewHost(fmt.Sprintf("dst%d", i))
		inPort := uint8(10 + i)
		n.Connect(src, 1, routers[0], inPort, WithDepth(64))
		n.Connect(routers[hops-1], inPort, dst, 1, WithDepth(64))
		route := []viper.Segment{{Port: 1}}
		for h := 0; h < hops-1; h++ {
			route = append(route, viper.Segment{Port: 2, Flags: viper.FlagVNT})
		}
		route = append(route,
			viper.Segment{Port: inPort, Flags: viper.FlagVNT},
			viper.Segment{Port: viper.PortLocal})
		bf = append(bf, benchFlow{src: src, route: route})
		sinks = append(sinks, dst)
	}
	pkts, elapsed, mallocs := runFlows(bf, sinks, d, 64*flows, false)
	return result(fmt.Sprintf("fan%d", flows), false, hops, flows, pkts, elapsed, mallocs)
}

func result(topo string, prepared bool, hops, flows int, pkts uint64, elapsed time.Duration, mallocs uint64) BenchResult {
	injection := "encode"
	if prepared {
		injection = "prepared"
	}
	r := BenchResult{
		Topology:   topo,
		Batch:      DefaultBatchSize,
		Injection:  injection,
		Hops:       hops,
		Flows:      flows,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Packets:    pkts,
		Seconds:    elapsed.Seconds(),
	}
	if pkts > 0 && elapsed > 0 {
		r.PktsPerSec = float64(pkts) / elapsed.Seconds()
		r.NsPerHop = float64(elapsed.Nanoseconds()) / float64(pkts*uint64(hops))
		r.AllocsPerPkt = float64(mallocs) / float64(pkts)
	}
	return r
}

// --- isolated hop measurement ------------------------------------------

// hopHdrTemplate is the Ethernet header every benchmark frame arrives
// with; forwarding swaps it in place, so drivers re-copy it per frame.
var hopHdrTemplate = ethernet.Header{
	Dst:  ethernet.Addr{0x02, 0, 0, 0, 0, 2},
	Src:  ethernet.Addr{0x02, 0, 0, 0, 0, 1},
	Type: viper.EtherTypeVIPER,
}.Encode()

// hopTemplateBytes encodes a two-segment packet (forward on port 2, then
// local) with one trailer segment, as a first-hop router would see it.
// The encoding is deterministic; failure is a programming error.
func hopTemplateBytes() []byte {
	route := []viper.Segment{
		{Port: 2, Flags: viper.FlagVNT, PortToken: []byte{0xA1, 0xA2, 0xA3, 0xA4}},
		{Port: viper.PortLocal},
	}
	pkt := viper.NewPacket(route, []byte("fastpath-hop-payload"))
	pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
	b, err := pkt.Encode()
	if err != nil {
		panic(err)
	}
	return b
}

// hopDriver builds a router with no worker goroutines: forwardBatch is
// called directly and the flushed frames read back from a hand-wired
// transmit pipe deep enough that a flush never parks. The pipe's
// doorbell stays nil (a nil channel in a select with default is never
// ready), so the measurement has no scheduler noise. The unexported
// constructor wires the dataplane pipeline exactly as NewRouter would,
// so the measurement is the production hop.
func hopDriver(batch int) (*Router, *pipe, *batchScratch) {
	r := NewNetwork().newRouter("bench")
	p := newPipe(4*batch, 2, nil, newNode("sink", 1))
	r.node.addTx(2, p)
	return r, p, newBatchScratch(batch)
}

// forwardOneBatch stages len(hdrs) pooled template frames as a drain
// would (sc.in), runs them through forwardBatch, and drains the transmit
// ring, recycling every frame. hdrs holds one reusable header buffer per
// batch slot — each frame's header is swapped in place. A non-nil tr
// attaches a fresh trace record to every frame.
func forwardOneBatch(r *Router, p *pipe, sc *batchScratch, tmpl []byte, hdrs [][]byte, drain []Frame, tr trace.Tracer) {
	for i := range hdrs {
		buf := pool.Get(len(tmpl) + frameHeadroom(2, len(tmpl)))
		buf = append(buf, tmpl...)
		copy(hdrs[i], hopHdrTemplate)
		sc.in = append(sc.in, inFrame{port: 1, frame: Frame{Hdr: hdrs[i], Pkt: buf, Trace: trace.Start(tr, nil), buf: buf[:0]}})
	}
	r.forwardBatch(sc)
	for got := 0; got < len(hdrs); {
		n := p.r.PopBatch(drain)
		for i := 0; i < n; i++ {
			if drain[i].Trace != nil {
				drain[i].Trace.Done()
			}
			drain[i].release()
			drain[i] = Frame{}
		}
		got += n
	}
}

// newHopBatch returns forwardOneBatch's per-slot header buffers and
// drain destination for a batch of n frames.
func newHopBatch(n int) (hdrs [][]byte, drain []Frame) {
	hdrs = make([][]byte, n)
	for i := range hdrs {
		hdrs[i] = make([]byte, ethernet.HeaderLen)
	}
	return hdrs, make([]Frame, n)
}

// BenchHop measures the router hop in isolation — no hosts, no
// injection, no delivery — by driving forwardBatch directly with
// batch-frame batches for iters hops after a warmup. This is the column
// that separates per-hop cost from per-packet endpoint overhead:
// NsPerHop and AllocsPerHop here are pure router numbers (AllocsPerHop
// is 0 in steady state at every batch size).
func BenchHop(batch, iters int) BenchResult {
	tmpl := hopTemplateBytes()
	r, p, sc := hopDriver(batch)
	hdrs, drain := newHopBatch(batch)
	run := func() { forwardOneBatch(r, p, sc, tmpl, hdrs, drain, nil) }
	for i := 0; i < 256; i++ {
		run()
	}
	runs := iters / batch
	if runs < 1 {
		runs = 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < runs; i++ {
		run()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	hops := uint64(runs * batch)
	return BenchResult{
		Topology:     "isolated-hop",
		Batch:        batch,
		Injection:    "none",
		Hops:         1,
		Flows:        1,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Packets:      hops,
		Seconds:      elapsed.Seconds(),
		PktsPerSec:   float64(hops) / elapsed.Seconds(),
		NsPerHop:     float64(elapsed.Nanoseconds()) / float64(hops),
		AllocsPerPkt: float64(ms1.Mallocs-ms0.Mallocs) / float64(hops),
		AllocsPerHop: float64(ms1.Mallocs-ms0.Mallocs) / float64(hops),
	}
}
