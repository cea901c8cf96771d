package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/daemon"
	"repro/internal/gateway"
	"repro/internal/workload"
)

// The gateway-mixed workload: one bulk SOCKS5 stream and one
// closed-loop RPC connection at the same time, through the standalone
// token-guarded gateway chain sirpentd runs (daemon.StartGateway with
// its defaults), both to an echo server in this process. The bulk
// stream is seeded and checked with SHA-256; RPC requests follow the
// §6.2 size mix and each echo is compared with its request.

const (
	rpcSizeMin = 16
	rpcSizeMax = 4096
	bulkChunk  = 16 << 10
	// bulkRate is the bulk stream's offered load in bytes per second. It
	// paces the writer at about half the chain's capacity on 2 vCPUs: an
	// unpaced stream's loss and retransmission cycles moved its goodput
	// by ±35% between identical runs. Goodput reads below bulkRate only
	// when the gateway cannot carry it.
	bulkRate  = 12e6
	gwPattern = 1 << 20
	// drainLimit bounds every wait at the end of the run: the bulk
	// stream's echo, the relays' stream teardown and quiescence.
	drainLimit = 20 * time.Second
)

// echoServer echoes every connection until its client half-closes.
type echoServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]bool
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, conns: map[net.Conn]bool{}}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns[c] = true
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				io.Copy(c, c)
				c.Close()
				e.mu.Lock()
				delete(e.conns, c)
				e.mu.Unlock()
			}()
		}
	}()
	return e, nil
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

// close stops accepting, closes any connection still open and waits
// for every echo goroutine.
func (e *echoServer) close() {
	e.ln.Close()
	e.mu.Lock()
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// gwRig is one built gateway configuration with its two client
// connections.
type gwRig struct {
	gs        *daemon.GatewayServer
	bulk, rpc net.Conn
}

func (g *gwRig) close() {
	if g.bulk != nil {
		g.bulk.Close()
	}
	if g.rpc != nil {
		g.rpc.Close()
	}
	g.gs.Close()
}

// rpcClient issues closed-loop echo RPCs on one connection.
type rpcClient struct {
	conn    net.Conn
	sizes   []int
	pattern []byte
	resp    []byte
	n       int
}

// call sends the next request and reads its echo; ok is false when
// the echo differs from the request.
func (c *rpcClient) call() (ok bool, err error) {
	size := c.sizes[c.n%len(c.sizes)]
	off := (c.n * 7919) % (len(c.pattern) - rpcSizeMax)
	req := c.pattern[off : off+size]
	c.n++
	if _, err := c.conn.Write(req); err != nil {
		return false, fmt.Errorf("rpc write: %w", err)
	}
	if _, err := io.ReadFull(c.conn, c.resp[:size]); err != nil {
		return false, fmt.Errorf("rpc read: %w", err)
	}
	return bytes.Equal(req, c.resp[:size]), nil
}

func buildGateway(echo string, sb *spanBuf, op uint64) (*gwRig, error) {
	root := spanID(op, spanSetup)
	t0 := now()
	gs, err := daemon.StartGateway(daemon.GatewayConfig{})
	sb.add(spanGatewayStart, op, root, t0, now())
	if err != nil {
		return nil, fmt.Errorf("start gateway: %w", err)
	}
	g := &gwRig{gs: gs}
	for _, c := range []*net.Conn{&g.bulk, &g.rpc} {
		t0 := now()
		*c, err = gateway.DialSocks(gs.Addr(), echo)
		sb.add(spanDial, op, root, t0, now())
		if err != nil {
			g.close()
			return nil, fmt.Errorf("socks dial: %w", err)
		}
	}
	return g, nil
}

// sample is one timed operation of a gateway worker.
type sample struct{ start, end int64 }

// inWindow returns the samples that ended within [from, to).
func inWindow(ss []sample, from, to int64) []sample {
	var out []sample
	for _, s := range ss {
		if s.end >= from && s.end < to {
			out = append(out, s)
		}
	}
	return out
}

func histOf(ss []sample) *hist {
	h := new(hist)
	for _, s := range ss {
		h.add(s.end - s.start)
	}
	return h
}

// bulkStream is the seeded bulk transfer: a writer and a reader
// goroutine on one connection, each hashing what it moved.
type bulkStream struct {
	conn     net.Conn
	pattern  []byte
	first    uint64 // index of the first chunk, so rounds stream different bytes
	stop     atomic.Bool
	written  atomic.Uint64
	read     atomic.Uint64
	sentSum  []byte
	gotSum   []byte
	writeErr error
	readErr  error
	writes   []sample
	spans    *spanBuf
	wg       sync.WaitGroup
}

func (b *bulkStream) start() {
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		h := sha256.New()
		start := now()
		for k := b.first; !b.stop.Load(); k++ {
			due := start + int64(float64((k-b.first)*bulkChunk)/bulkRate*1e9)
			if wait := due - now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			off := (k * 40503) % uint64(len(b.pattern)-bulkChunk)
			chunk := b.pattern[off : off+bulkChunk]
			t0 := now()
			_, err := b.conn.Write(chunk)
			t1 := now()
			b.writes = append(b.writes, sample{t0, t1})
			b.spans.add(spanBulkWrite, 2<<40|k, 0, t0, t1)
			if err != nil {
				b.writeErr = err
				break
			}
			h.Write(chunk)
			b.written.Add(bulkChunk)
		}
		b.sentSum = h.Sum(nil)
		if tc, ok := b.conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	go func() {
		defer b.wg.Done()
		h := sha256.New()
		b.readErr = copyCounting(h, b.conn, &b.read)
		b.gotSum = h.Sum(nil)
	}()
}

// copyCounting reads r to EOF into h, counting bytes as they arrive.
func copyCounting(h hash.Hash, r io.Reader, n *atomic.Uint64) error {
	buf := make([]byte, bulkChunk)
	for {
		k, err := r.Read(buf)
		h.Write(buf[:k])
		n.Add(uint64(k))
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// wait stops the writer and waits for the echo of everything written,
// up to limit; it reports whether both goroutines finished.
func (b *bulkStream) wait(limit time.Duration) bool {
	b.stop.Store(true)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(limit):
		b.conn.Close() // unblocks both goroutines
		<-done
		return false
	}
}

// gwRound is one round of gateway-mixed: a fresh gateway, set up,
// warmed up, measured, checked and torn down.
type gwRound struct {
	setup   float64 // seconds from StartGateway to the first RPC echoed
	traced  bool
	secs    float64 // measured window
	rpcs    []sample
	writes  []sample
	bulk    uint64 // bulk bytes echoed in the window
	total   uint64 // bulk bytes echoed in the round
	proc    procDelta
	in, eg  gateway.Stats
	billed  uint64
	billedB uint64
	waited  time.Duration
}

// gwInputs are the seeded inputs shared by every round.
type gwInputs struct {
	echo    *echoServer
	pattern []byte
	sizes   []int
}

// runGatewayRound runs one round for d. Check failures and failed
// operations are reported on res; an error means the round could not
// run at all.
func runGatewayRound(in gwInputs, round int, d time.Duration, setupBuf *spanBuf, rec *recorder, res *result) (*gwRound, error) {
	op := uint64(1)<<56 | uint64(round)
	t0 := now()
	g, err := buildGateway(in.echo.addr(), setupBuf, op)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer g.close()
	rc := &rpcClient{conn: g.rpc, sizes: in.sizes, pattern: in.pattern, resp: make([]byte, rpcSizeMax), n: round << 20}
	tp := now()
	ok, err := rc.call()
	t1 := now()
	setupBuf.add(spanProbe, op, spanID(op, spanSetup), tp, t1)
	setupBuf.add(spanSetup, op, 0, t0, t1)
	if err == nil && !ok {
		err = errors.New("first RPC echo differs from its request")
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r := &gwRound{setup: float64(t1-t0) / 1e9, traced: rec != nil}

	// The bulk stream and the RPC loop run through warmup and the
	// measured window; the window is cut from their timestamps.
	bs := &bulkStream{conn: g.bulk, pattern: in.pattern, first: uint64(round) << 20, spans: rec.buf()}
	rpcSpans := rec.buf()
	var rpcStop atomic.Bool
	var rpcs []sample
	var rpcErr error
	var mismatches uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !rpcStop.Load() {
			t0 := now()
			ok, err := rc.call()
			t1 := now()
			if err != nil {
				rpcErr = err
				return
			}
			if !ok {
				mismatches++
			}
			rpcs = append(rpcs, sample{t0, t1})
			rpcSpans.add(spanRPC, 3<<40|uint64(rc.n), 0, t0, t1)
		}
	}()
	bs.start()
	time.Sleep(warmup)
	p0 := sampleProc()
	bulk0 := bs.read.Load()
	time.Sleep(d)
	p1 := sampleProc()
	r.bulk = bs.read.Load() - bulk0
	r.secs = float64(p1.at-p0.at) / 1e9
	r.proc = deltaProc(p0, p1)

	// Stop the RPC loop, then the bulk stream, whose echo must come
	// back whole.
	rpcStop.Store(true)
	wg.Wait()
	if !bs.wait(drainLimit) {
		res.problem("round %d: bulk echo not complete %v after the writer stopped", round, drainLimit)
	}
	g.rpc.Close()
	g.bulk.Close()
	r.rpcs = inWindow(rpcs, p0.at, p1.at)
	r.writes = inWindow(bs.writes, p0.at, p1.at)
	r.total = bs.read.Load()
	res.attempted += uint64(len(rpcs)) + 1 // every RPC of the round and the bulk stream
	bulkOK := false
	switch {
	case bs.writeErr != nil:
		res.problem("round %d: bulk write: %v", round, bs.writeErr)
	case bs.readErr != nil:
		res.problem("round %d: bulk read: %v", round, bs.readErr)
	case bs.read.Load() != bs.written.Load():
		res.problem("round %d: bulk echoed %d bytes, wrote %d", round, bs.read.Load(), bs.written.Load())
	case !bytes.Equal(bs.sentSum, bs.gotSum):
		res.problem("round %d: bulk SHA-256 of the echo differs from what was written", round)
	default:
		bulkOK = true
	}
	if !bulkOK {
		res.failed++
	}
	if rpcErr != nil {
		res.problem("round %d: rpc: %v", round, rpcErr)
		res.failed++
	}
	if mismatches > 0 {
		res.problem("round %d: %d RPC echoes differ from their requests", round, mismatches)
		res.failed += mismatches
	}

	// Wait for both relays to finish their streams and for every
	// counter to stop moving; only then reconcile the ledger.
	deadline := time.Now().Add(drainLimit)
	for g.gs.IngressStats().ActiveStreams+g.gs.EgressStats().ActiveStreams > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	var quiet bool
	r.waited, quiet = waitQuiet(func() [16]uint64 {
		is, es := g.gs.IngressStats(), g.gs.EgressStats()
		bill := g.gs.Bill()[check.GatewayAccount]
		return [16]uint64{is.GroupsSent, es.GroupsSent, is.BytesIn, es.BytesOut, is.BytesOut, es.BytesIn,
			is.VMTP.CallsCompleted, es.VMTP.CallsCompleted, is.VMTP.AcksSent, es.VMTP.AcksSent,
			is.VMTP.Retransmissions, es.VMTP.Retransmissions, bill.Packets, bill.Bytes, uint64(is.ActiveStreams + es.ActiveStreams)}
	}, 4, 10*time.Millisecond, drainLimit)
	if !quiet {
		res.problem("round %d: gateway counters still moving %v after the clients closed", round, r.waited)
	}
	for _, p := range g.gs.Reconcile() {
		res.problem("round %d: ledger: %s", round, p)
	}
	r.in, r.eg = g.gs.IngressStats(), g.gs.EgressStats()
	bill := g.gs.Bill()[check.GatewayAccount]
	r.billed, r.billedB = bill.Packets, bill.Bytes
	return r, nil
}

func runGateway(cfg runConfig) *result {
	res := newResult()
	res.infof("workload gateway-mixed: %d rounds, each a fresh daemon.StartGateway chain carrying 1 bulk stream + 1 closed-loop RPC connection", rounds)
	var rec *recorder
	if cfg.traced {
		rec = &recorder{}
	}
	peak := startGoroutinePeak()
	echo, err := startEcho()
	if err != nil {
		res.problem("echo server: %v", err)
		peak.Stop()
		return res
	}
	defer echo.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	in := gwInputs{echo: echo, pattern: make([]byte, gwPattern), sizes: make([]int, 1<<14)}
	rng.Read(in.pattern)
	dist := workload.SizeDist{Min: rpcSizeMin, Max: rpcSizeMax}
	for i := range in.sizes {
		in.sizes[i] = dist.Sample(rng)
	}

	setupBuf := rec.buf()
	var all, plain, traced []*gwRound
	for round := 0; round < rounds; round++ {
		var phaseRec *recorder
		if cfg.traced && round%2 == 1 {
			phaseRec = rec
		}
		r, err := runGatewayRound(in, round, cfg.measure/rounds, setupBuf, phaseRec, res)
		if err != nil {
			res.problem("round %d: %v", round, err)
			peak.Stop()
			return res
		}
		all = append(all, r)
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	peakG := peak.Stop()

	over := func(rs []*gwRound, f func(r *gwRound) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	var setups []float64
	for _, r := range all {
		setups = append(setups, r.setup)
	}
	res.set("setup_s", median(setups))
	u := pool(plain)
	res.set("ops_per_s", float64(len(u.rpcs))/u.secs)
	res.set("goodput_MBps", float64(u.bulk)/1e6/u.secs)
	res.set("lat_p50_us", histOf(u.rpcs).quantile(0.50)/1e3)
	res.set("cpu_ms_per_MB", float64(u.proc.cpu)/float64(u.bulk))
	res.set("mem_peak_MB", peakRSSMB())
	var nRPC int
	var bulk uint64
	for _, r := range all {
		nRPC += len(r.rpcs)
		bulk += r.total
	}
	res.infof("measured %d RPCs in %d rounds of %v; %d bulk bytes echoed and SHA-256 checked", nRPC, rounds, cfg.measure/rounds, bulk)
	if !cfg.traced {
		return res
	}

	// Per-layer metrics.
	t := pool(traced)
	private := "the gateway chain's routes, routers and links are private to daemon.GatewayServer"
	res.unavailable("daemon.StartGateway issues its tokens without the directory", "directory.routes_us", "directory.queries")
	res.unavailable(private, "token.issue_us", "token.check_ns", "token.verifies", "token.hit_ratio",
		"viper.encode_ns", "viper.decode_ns", "viper.overhead_bytes_per_pkt",
		"dataplane.hop_ns", "dataplane.forwarded", "dataplane.hops_per_pkt", "dataplane.drops_queue_full", "dataplane.drops_other",
		"livenet.link_drops", "livenet.allocs_per_pkt", "livenet.cpu_ns_per_pkt", "livenet.substrate_ns_per_pkt")
	res.unavailable("the gateway relays call livenet Host.Send, not the benchmark", "livenet.send_us_p50",
		"livenet.send_us_p99", "livenet.transit_us_p50", "livenet.lat_p99_us")
	res.unavailable("no udpnet tunnel on this workload", "udpnet.encapsulated", "udpnet.decapsulated",
		"udpnet.send_errors", "udpnet.dropped", "udpnet.decode_errors", "udpnet.attach_us")
	res.unavailable("no datagram window on this workload", "bench.slot_reclaims")

	var v, ev gatewaySum
	var billed, billedB uint64
	var waits []float64
	for _, r := range all {
		v.add(r.in)
		ev.add(r.eg)
		billed += r.billed
		billedB += r.billedB
		waits = append(waits, float64(r.waited)/1e6)
	}
	// Reconcile passed (or failed above), so the routers' token
	// authorizations equal the ledger's billed packets.
	res.set("token.authorized", float64(billed))
	retx := v.retx + ev.retx + v.selective + ev.selective
	res.set("vmtp.calls_completed", float64(v.completed+ev.completed))
	res.set("vmtp.calls_failed", float64(v.failed+ev.failed))
	res.set("vmtp.retransmissions", float64(v.retx+ev.retx))
	res.set("vmtp.selective_resends", float64(v.selective+ev.selective))
	res.set("vmtp.dup_requests", float64(v.dups+ev.dups))
	res.set("vmtp.queue_drops", float64(v.queueDrops+ev.queueDrops))
	res.set("vmtp.retx_per_MB", float64(retx)/(float64(bulk)/1e6))
	res.set("vmtp.group_rtt_p50_us", over(all, func(r *gwRound) float64 { return float64(r.in.GroupRTTp50us) }))
	res.set("vmtp.group_rtt_p99_us", over(all, func(r *gwRound) float64 { return float64(r.in.GroupRTTp99us) }))
	res.set("gateway.rpc_p99_us", histOf(u.rpcs).quantile(0.99)/1e3)
	res.set("gateway.start_us", median(rec.durations(spanGatewayStart))/1e3)
	res.set("gateway.dial_us", median(rec.durations(spanDial))/1e3)
	res.set("gateway.write_us_p99", histOf(t.writes).quantile(0.99)/1e3)
	res.set("gateway.groups_sent", float64(v.groups+ev.groups))
	res.set("gateway.resets", float64(v.resets+ev.resets))
	res.set("gateway.socks_errors", float64(v.socksErrors+ev.socksErrors))
	res.set("gateway.open_failures", float64(v.openFailures+ev.openFailures))
	res.set("gateway.billed_bytes_per_byte", float64(billedB)/float64(bulk))
	res.set("ledger.billed_packets", float64(billed))
	res.set("ledger.billed_bytes", float64(billedB))
	res.set("ledger.reconcile_wait_ms", median(waits))
	nOps := float64(max(len(u.rpcs), 1))
	res.set("go.allocs_per_op", float64(u.proc.mallocs)/nOps)
	res.set("go.bytes_per_op", float64(u.proc.bytes)/nOps)
	res.set("go.gc_cycles", float64(u.proc.gcCycles)/float64(len(plain)))
	res.set("go.gc_pause_ms", float64(u.proc.gcPause)/1e6/float64(len(plain)))
	res.set("go.goroutines_peak", float64(peakG))
	res.set("bench.fail_ratio", float64(res.failed)/float64(res.attempted))
	res.set("bench.trace_overhead_pct", 100*(1-(float64(len(t.rpcs))/t.secs)/(float64(len(u.rpcs))/u.secs)))
	res.infof("retransmissions %d + selective resends %d over %.1f MB of bulk echo",
		v.retx+ev.retx, v.selective+ev.selective, float64(bulk)/1e6)
	writeSpans(res, rec, cfg.spanOut)
	return res
}

// pool merges rounds into one: samples, bytes, seconds and process
// cost add up.
func pool(rs []*gwRound) *gwRound {
	p := &gwRound{}
	for _, r := range rs {
		p.rpcs = append(p.rpcs, r.rpcs...)
		p.writes = append(p.writes, r.writes...)
		p.bulk += r.bulk
		p.secs += r.secs
		p.proc.add(r.proc)
	}
	return p
}

// gatewaySum adds up one relay's counters over rounds.
type gatewaySum struct {
	completed, failed, retx, selective, dups, queueDrops uint64
	groups, resets, socksErrors, openFailures            uint64
}

func (s *gatewaySum) add(st gateway.Stats) {
	s.completed += st.VMTP.CallsCompleted
	s.failed += st.VMTP.CallsFailed
	s.retx += st.VMTP.Retransmissions
	s.selective += st.VMTP.SelectiveResends
	s.dups += st.VMTP.DupRequests
	s.queueDrops += st.VMTP.QueueDrops
	s.groups += st.GroupsSent
	s.resets += st.Resets
	s.socksErrors += st.SocksErrors
	s.openFailures += st.OpenFailures
}
