package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/directory"
	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/udpnet"
	"repro/internal/viper"
	"repro/internal/workload"
)

// The datagram workloads: two source hosts on R0 send to two sink
// hosts on R3 across a token-guarded chain R0–R1–R2–R3, with routes
// and tokens issued by the directory. mesh-datagram runs the chain in
// one livenet Network; tunnel-datagram replaces the R1–R2 link with a
// udpnet tunnel over 127.0.0.1 joining two Networks in this process.
//
// The load is a closed loop: each flow keeps a fixed window of
// datagrams in flight, and a slot returns when its datagram is
// delivered or, after slotTimeout, counted lost. The total window is
// at most the smallest queue on the path, so a loss is a defect, not
// pacing noise.

const (
	dgFlows = 2
	// meshWindow: 2 flows × 32 = 64 frames, the depth sirpentd gives
	// its links (livenet.WithDepth(64)).
	meshWindow = 32
	// tunnelWindow: 2 flows × 8 = 16 frames, the depth udpnet.Attach
	// gives the router→tunnel inner link (livenet.DefaultLinkDepth).
	tunnelWindow = 8
	// linkDepth is the queue depth sirpentd wires its links with.
	linkDepth = 64
	// slotTimeout is how long a datagram may be in flight before it is
	// counted lost and its window slot reclaimed.
	slotTimeout = 100 * time.Millisecond
	// Datagram payload sizes follow the §6.2 mix between these bounds;
	// the largest wire image stays under viper.MTU with four tokens.
	dgSizeMin = 40
	dgSizeMax = 1200
	// dgHdrLen is the payload prefix: flow (1), slot (2), sequence (8).
	dgHdrLen  = 11
	sizeTable = 1 << 16
	patternSz = 1 << 16
	chainLen  = 4
)

// Ports of the chain. Sources attach to R0 on 10+i, sinks to R3 on
// 20+i; trunks leave on trunkOut and arrive on trunkIn.
const (
	hostPort = 1
	trunkOut = 100
	trunkIn  = 1
	srcPort0 = 10
	dstPort0 = 20
	// linkID names the R1–R2 tunnel on both bridges.
	linkID = 1
)

func routerName(k int) string { return fmt.Sprintf("R%d", k) }

// chain is one built configuration of a datagram workload.
type chain struct {
	svc      *directory.Service
	auths    []*token.Authority
	nets     []*livenet.Network
	routers  []*livenet.Router
	links    []*livenet.Link // in-process links between chain nodes
	bridges  []*udpnet.Bridge
	tunnels  []*udpnet.Tunnel
	srcs     []*livenet.Host
	sinks    []*livenet.Host
	routes   [][]viper.Segment // per flow, sender directive first
	required [][]uint8         // per router, the out-ports demanding a token
	inPorts  [][]uint8         // per flow, the port each router receives it on
}

func (c *chain) stop() {
	for _, b := range c.bridges {
		b.Close()
	}
	for _, n := range c.nets {
		n.Stop()
	}
}

// buildChain builds the directory, asks it for one route per flow, and
// wires the livenet chain (and the tunnel) the routes run over. Setup
// calls are recorded as spans under op when sb is non-nil.
func buildChain(tunnel bool, seed int64, sb *spanBuf, op uint64) (*chain, error) {
	c := &chain{}
	root := spanID(op, spanSetup)

	// Directory: topology, one token authority per router, a route
	// per flow.
	g := directory.NewGraph()
	attrs := directory.EdgeAttrs{RateBps: 1e9, Secure: true}
	edge := func(from, to string, port uint8) error {
		return g.AddEdge(directory.Edge{From: from, To: to, FromPort: port, Attrs: attrs})
	}
	for k := 0; k < chainLen; k++ {
		g.AddNode(routerName(k), directory.KindRouter)
	}
	var err error
	for i := 0; i < dgFlows; i++ {
		s, d := fmt.Sprintf("S%d", i), fmt.Sprintf("D%d", i)
		g.AddNode(s, directory.KindHost)
		g.AddNode(d, directory.KindHost)
		for _, e := range []error{
			edge(s, "R0", hostPort), edge("R0", s, uint8(srcPort0+i)),
			edge(routerName(chainLen-1), d, uint8(dstPort0+i)), edge(d, routerName(chainLen-1), hostPort),
		} {
			if e != nil {
				err = e
			}
		}
	}
	for k := 0; k+1 < chainLen; k++ {
		if e := edge(routerName(k), routerName(k+1), trunkOut); e != nil {
			err = e
		}
		if e := edge(routerName(k+1), routerName(k), trunkIn); e != nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	c.svc = directory.NewService(sim.NewEngine(seed), g)
	for k := 0; k < chainLen; k++ {
		a := token.NewAuthority([]byte(fmt.Sprintf("perfbench-%s-%d", routerName(k), seed)))
		c.auths = append(c.auths, a)
		c.svc.RegisterAuthority(routerName(k), a)
		req := []uint8{trunkOut}
		if k == chainLen-1 {
			req = nil
			for i := 0; i < dgFlows; i++ {
				req = append(req, uint8(dstPort0+i))
			}
		}
		c.required = append(c.required, req)
	}
	for i := 0; i < dgFlows; i++ {
		t0 := now()
		rs, err := c.svc.Routes(directory.Query{
			From: fmt.Sprintf("S%d", i), To: fmt.Sprintf("D%d", i),
			Pref: directory.MinHops, Account: uint32(1000 + i),
		})
		sb.add(spanDirRoutes, op, root, t0, now())
		if err != nil {
			return nil, fmt.Errorf("directory route for flow %d: %w", i, err)
		}
		if rs[0].Hops != chainLen {
			return nil, fmt.Errorf("directory route for flow %d crosses %d routers, want %d", i, rs[0].Hops, chainLen)
		}
		c.routes = append(c.routes, rs[0].Segments)
		in := []uint8{uint8(srcPort0 + i)}
		for k := 1; k < chainLen; k++ {
			in = append(in, trunkIn)
		}
		c.inPorts = append(c.inPorts, in)
	}

	// Substrate: the chain in one Network, or split at R1–R2 into two
	// Networks joined by a loopback tunnel.
	t0 := now()
	nA := livenet.NewNetwork()
	nB := nA
	c.nets = []*livenet.Network{nA}
	if tunnel {
		nB = livenet.NewNetwork()
		c.nets = append(c.nets, nB)
	}
	netOf := func(k int) *livenet.Network {
		if k >= 2 {
			return nB
		}
		return nA
	}
	for k := 0; k < chainLen; k++ {
		r := netOf(k).NewRouter(routerName(k))
		r.SetTokenAuthority(c.auths[k])
		for _, p := range c.required[k] {
			r.RequireToken(p)
		}
		c.routers = append(c.routers, r)
	}
	last := c.routers[chainLen-1]
	for i := 0; i < dgFlows; i++ {
		s := nA.NewHost(fmt.Sprintf("S%d", i))
		d := nB.NewHost(fmt.Sprintf("D%d", i))
		c.links = append(c.links,
			nA.Connect(s, hostPort, c.routers[0], uint8(srcPort0+i), livenet.WithDepth(linkDepth)),
			nB.Connect(last, uint8(dstPort0+i), d, hostPort, livenet.WithDepth(linkDepth)))
		c.srcs = append(c.srcs, s)
		c.sinks = append(c.sinks, d)
	}
	for k := 0; k+1 < chainLen; k++ {
		if tunnel && k == 1 {
			continue
		}
		c.links = append(c.links, netOf(k).Connect(c.routers[k], trunkOut, c.routers[k+1], trunkIn, livenet.WithDepth(linkDepth)))
	}
	sb.add(spanNetBuild, op, root, t0, now())
	if !tunnel {
		return c, nil
	}
	for range 2 {
		b, err := udpnet.Listen("127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("udpnet listen: %w", err)
		}
		c.bridges = append(c.bridges, b)
	}
	ends := []struct {
		n    *livenet.Network
		r    *livenet.Router
		port uint8
	}{{nA, c.routers[1], trunkOut}, {nB, c.routers[2], trunkIn}}
	for j, e := range ends {
		t0 := now()
		t, err := c.bridges[j].Attach(e.n, e.r, e.port, linkID, udpnet.WithRemote(c.bridges[1-j].Addr()))
		sb.add(spanAttach, op, root, t0, now())
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("udpnet attach: %w", err)
		}
		c.tunnels = append(c.tunnels, t)
	}
	return c, nil
}

// dgSlot is one window slot: tag is seq+1 while the slot's datagram is
// in flight and 0 when the slot is free; t0 is the datagram's send
// time.
type dgSlot struct {
	tag atomic.Uint64
	t0  atomic.Int64
}

// dgFlow is one source's closed loop. next, buf and sendHist belong to
// the flow's sender goroutine while a phase runs.
type dgFlow struct {
	id       int
	src      *livenet.Host
	route    []viper.Segment
	slots    []dgSlot
	free     chan uint16 // free slot indices; capacity = window
	sizes    []uint16
	next     uint64
	buf      []byte
	sendHist *hist
	sent     atomic.Uint64
	sendErrs atomic.Uint64
}

// dgSink is one sink host's receive side. lat belongs to the host's
// goroutine while traffic flows.
type dgSink struct {
	id        int
	lat       *hist
	spans     *spanBuf
	delivered atomic.Uint64
	bytes     atomic.Uint64
	late      atomic.Uint64 // arrived after its slot was reclaimed
	corrupt   atomic.Uint64 // wrong sink, unknown slot, or payload mismatch
}

// dgLoad drives one chain's flows.
type dgLoad struct {
	round    int // keeps span IDs of different rounds apart
	flows    []*dgFlow
	sinks    []*dgSink
	pattern  []byte
	reclaims atomic.Uint64
	// inflight counts datagrams whose slot is taken. The handler, the
	// reaper and a failed Send release it last, after touching any
	// per-phase state, so drain's load orders their writes before the
	// next phase.
	inflight atomic.Int64
	stop     chan struct{}
	done     chan struct{}
}

func newLoad(c *chain, seed int64, round, window int) *dgLoad {
	l := &dgLoad{round: round, stop: make(chan struct{}), done: make(chan struct{})}
	rng := rand.New(rand.NewSource(seed))
	l.pattern = make([]byte, patternSz)
	rng.Read(l.pattern)
	dist := workload.SizeDist{Min: dgSizeMin, Max: dgSizeMax}
	for i := 0; i < dgFlows; i++ {
		f := &dgFlow{
			id: i, src: c.srcs[i], route: c.routes[i],
			slots: make([]dgSlot, window), free: make(chan uint16, window),
			sizes: make([]uint16, sizeTable), buf: make([]byte, dgSizeMax),
			sendHist: new(hist),
		}
		for j := range f.sizes {
			f.sizes[j] = uint16(dist.Sample(rng))
		}
		for s := 0; s < window; s++ {
			f.free <- uint16(s)
		}
		l.flows = append(l.flows, f)
		sk := &dgSink{id: i, lat: new(hist)}
		l.sinks = append(l.sinks, sk)
		c.sinks[i].Handle(0, l.deliver(sk))
	}
	go l.reap()
	return l
}

// content returns the bytes a datagram carries after its header: a
// window of the seeded pattern chosen by flow and sequence.
func (l *dgLoad) content(flow int, seq uint64, n int) []byte {
	off := (seq*2654435761 + uint64(flow)*7919) % uint64(len(l.pattern)-dgSizeMax)
	return l.pattern[off : off+uint64(n-dgHdrLen)]
}

// send originates the next datagram of f in slot idx.
func (l *dgLoad) send(f *dgFlow, idx uint16, sb *spanBuf) {
	seq := f.next
	f.next++
	n := int(f.sizes[seq%sizeTable])
	b := f.buf[:n]
	b[0] = byte(f.id)
	binary.BigEndian.PutUint16(b[1:3], idx)
	binary.BigEndian.PutUint64(b[3:11], seq)
	copy(b[dgHdrLen:], l.content(f.id, seq, n))
	s := &f.slots[idx]
	t0 := now()
	s.t0.Store(t0)
	l.inflight.Add(1)
	s.tag.Store(seq + 1)
	err := f.src.Send(f.route, b)
	t1 := now()
	f.sendHist.add(t1 - t0)
	f.sent.Add(1)
	if sb != nil && seq%traceEvery == 0 {
		sb.add(spanSend, l.op(f.id, seq), 0, t0, t1)
	}
	if err != nil {
		f.sendErrs.Add(1)
		if s.tag.CompareAndSwap(seq+1, 0) {
			l.inflight.Add(-1)
			f.free <- idx
		}
	}
}

// op names one datagram's spans: round, flow and sequence.
func (l *dgLoad) op(flow int, seq uint64) uint64 {
	return uint64(l.round+1)<<48 | uint64(flow+1)<<40 | seq
}

// deliver returns sink sk's delivery handler: it checks the datagram
// (right sink, known slot, size and content from the seed), records
// its one-way latency and frees its slot.
func (l *dgLoad) deliver(sk *dgSink) func(livenet.Delivery) {
	return func(d livenet.Delivery) {
		t := now()
		p := d.Data
		if len(p) < dgHdrLen || int(p[0]) != sk.id {
			sk.corrupt.Add(1)
			return
		}
		f := l.flows[p[0]]
		idx := binary.BigEndian.Uint16(p[1:3])
		seq := binary.BigEndian.Uint64(p[3:11])
		if int(idx) >= len(f.slots) {
			sk.corrupt.Add(1)
			return
		}
		s := &f.slots[idx]
		t0 := s.t0.Load()
		ok := len(p) == int(f.sizes[seq%sizeTable]) && bytes.Equal(p[dgHdrLen:], l.content(f.id, seq, len(p)))
		if !s.tag.CompareAndSwap(seq+1, 0) {
			sk.late.Add(1)
			return
		}
		if !ok {
			sk.corrupt.Add(1)
			l.inflight.Add(-1)
			f.free <- idx
			return
		}
		sk.lat.add(t - t0)
		sk.delivered.Add(1)
		sk.bytes.Add(uint64(len(p)))
		if sk.spans != nil && seq%traceEvery == 0 {
			op := l.op(f.id, seq)
			sk.spans.add(spanDeliver, op, spanID(op, spanSend), t, now())
		}
		l.inflight.Add(-1)
		f.free <- idx
	}
}

// reap reclaims the slots of datagrams in flight longer than
// slotTimeout, counting each as lost, until the load is closed.
func (l *dgLoad) reap() {
	defer close(l.done)
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
		}
		limit := now() - int64(slotTimeout)
		for _, f := range l.flows {
			for i := range f.slots {
				s := &f.slots[i]
				v := s.tag.Load()
				if v != 0 && s.t0.Load() < limit && s.tag.CompareAndSwap(v, 0) {
					l.reclaims.Add(1)
					l.inflight.Add(-1)
					f.free <- uint16(i)
				}
			}
		}
	}
}

func (l *dgLoad) close() {
	close(l.stop)
	<-l.done
}

// drain waits until no datagram is in flight, which the reaper
// guarantees within slotTimeout plus one tick.
func (l *dgLoad) drain() bool {
	deadline := time.Now().Add(slotTimeout + 100*time.Millisecond)
	for l.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// dgCounts is a snapshot of the load's cumulative counters.
type dgCounts struct {
	sent, sendErrs, delivered, bytes, late, corrupt, reclaims uint64
}

func (l *dgLoad) counts() dgCounts {
	var c dgCounts
	for _, f := range l.flows {
		c.sent += f.sent.Load()
		c.sendErrs += f.sendErrs.Load()
	}
	for _, s := range l.sinks {
		c.delivered += s.delivered.Load()
		c.bytes += s.bytes.Load()
		c.late += s.late.Load()
		c.corrupt += s.corrupt.Load()
	}
	c.reclaims = l.reclaims.Load()
	return c
}

func (a dgCounts) sub(b dgCounts) dgCounts {
	return dgCounts{a.sent - b.sent, a.sendErrs - b.sendErrs, a.delivered - b.delivered,
		a.bytes - b.bytes, a.late - b.late, a.corrupt - b.corrupt, a.reclaims - b.reclaims}
}

// failed counts the phase's failed operations: datagrams lost (their
// slots reclaimed), refused by Send, or delivered wrong.
func (c dgCounts) failed() uint64 { return c.reclaims + c.sendErrs + c.corrupt }

// dgPhase is one measured phase.
type dgPhase struct {
	counts  dgCounts
	lat     hist
	send    hist
	proc    procDelta
	elapsed float64 // seconds, from the first send to the last slot freed
}

func (p *dgPhase) opsPerSec() float64 { return float64(p.counts.delivered) / p.elapsed }

// runPhase drives every flow for d, then drains. Histograms are fresh
// per phase; rec, when non-nil, records sampled send and delivery
// spans.
func (l *dgLoad) runPhase(d time.Duration, rec *recorder) (*dgPhase, error) {
	for _, f := range l.flows {
		f.sendHist = new(hist)
	}
	for _, s := range l.sinks {
		s.lat = new(hist)
		s.spans = rec.buf()
	}
	c0 := l.counts()
	p0 := sampleProc()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, f := range l.flows {
		sb := rec.buf()
		wg.Add(1)
		go func(f *dgFlow) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case idx := <-f.free:
					select {
					case <-stop:
						f.free <- idx
						return
					default:
					}
					l.send(f, idx, sb)
				}
			}
		}(f)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	drained := l.drain()
	p1 := sampleProc()
	ph := &dgPhase{counts: l.counts().sub(c0), proc: deltaProc(p0, p1), elapsed: float64(p1.at-p0.at) / 1e9}
	for _, s := range l.sinks {
		ph.lat.merge(s.lat)
		s.spans = nil
	}
	for _, f := range l.flows {
		ph.send.merge(f.sendHist)
	}
	if !drained {
		return ph, fmt.Errorf("window slots still held %v after the phase ended", slotTimeout+100*time.Millisecond)
	}
	return ph, nil
}

// probe sends one datagram per flow and waits for the window to empty:
// the configuration is ready for its first operation.
func (l *dgLoad) probe() error {
	for _, f := range l.flows {
		l.send(f, <-f.free, nil)
	}
	if !l.drain() {
		return fmt.Errorf("probe datagrams not delivered")
	}
	if c := l.counts(); c.delivered != uint64(len(l.flows)) {
		return fmt.Errorf("probe: %d of %d datagrams delivered", c.delivered, len(l.flows))
	}
	return nil
}

// chainCounters sums the chain's forwarding-plane counters.
type chainCounters struct {
	router    stats.Counters
	linkDrops uint64
	tunnel    udpnet.Stats
	bridgeErr uint64
	verifies  uint64
	hits      uint64
}

func (c *chain) counters() chainCounters {
	var cc chainCounters
	for _, r := range c.routers {
		v, h := r.TokenCache().Metrics()
		cc.add(chainCounters{router: r.Stats(), verifies: v, hits: h})
	}
	for _, l := range c.links {
		cc.linkDrops += l.Dropped()
	}
	for _, t := range c.tunnels {
		cc.add(chainCounters{tunnel: t.Stats()})
	}
	for _, b := range c.bridges {
		cc.bridgeErr += b.DecodeErrors()
	}
	return cc
}

func (cc *chainCounters) add(o chainCounters) {
	cc.router.Forwarded += o.router.Forwarded
	cc.router.Local += o.router.Local
	cc.router.TokenAuthorized += o.router.TokenAuthorized
	for i := range o.router.Drops {
		cc.router.Drops[i] += o.router.Drops[i]
	}
	cc.linkDrops += o.linkDrops
	cc.tunnel.Encapsulated += o.tunnel.Encapsulated
	cc.tunnel.Decapsulated += o.tunnel.Decapsulated
	cc.tunnel.DecodeErrors += o.tunnel.DecodeErrors
	cc.tunnel.SendErrors += o.tunnel.SendErrors
	cc.tunnel.Dropped += o.tunnel.Dropped
	cc.bridgeErr += o.bridgeErr
	cc.verifies += o.verifies
	cc.hits += o.hits
}

func (cc chainCounters) routerDrops() uint64 {
	var n uint64
	for _, d := range cc.router.Drops {
		n += d
	}
	return n
}

// attributedDrops is every discard the chain accounts for: router
// drops, link fault injection, and tunnel discards and errors.
func (cc chainCounters) attributedDrops() uint64 {
	return cc.routerDrops() + cc.linkDrops + cc.tunnel.Dropped + cc.tunnel.SendErrors + cc.tunnel.DecodeErrors + cc.bridgeErr
}

// key folds the counters into a comparable value for waitQuiet.
func (cc chainCounters) key(lc dgCounts) [16]uint64 {
	return [16]uint64{cc.router.Forwarded, cc.router.TokenAuthorized, cc.routerDrops(), cc.linkDrops,
		cc.tunnel.Encapsulated, cc.tunnel.Decapsulated, cc.tunnel.Dropped, cc.tunnel.SendErrors,
		lc.delivered, lc.late, lc.corrupt, cc.verifies, cc.hits}
}

// dgRound is one round of a datagram workload: a fresh chain, set up,
// warmed up, measured, checked and torn down.
type dgRound struct {
	setup  float64 // seconds from the start of setup to the first datagram delivered
	traced bool
	ph     *dgPhase
	cc     chainCounters
	billed ledger.Entry
	waited time.Duration
	chain  *chain
	load   *dgLoad
}

// runDatagramRound runs one round for d. Check failures are reported
// on res; an error means the round could not run at all.
func runDatagramRound(cfg runConfig, tunnel bool, window, round int, d time.Duration, setupBuf *spanBuf, rec *recorder, res *result) (*dgRound, error) {
	op := uint64(1)<<56 | uint64(round)
	t0 := now()
	c, err := buildChain(tunnel, cfg.seed, setupBuf, op)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer c.stop()
	l := newLoad(c, cfg.seed<<8+int64(round), round, window)
	defer l.close()
	tp := now()
	err = l.probe()
	t1 := now()
	setupBuf.add(spanProbe, op, spanID(op, spanSetup), tp, t1)
	setupBuf.add(spanSetup, op, 0, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if cfg.lossRatio > 0 && !tunnel {
		// The R1–R2 trunk is the last link buildChain wired but one.
		c.links[len(c.links)-2].SetLossRatio(cfg.lossRatio)
	}
	if _, err := l.runPhase(warmup, nil); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	r := &dgRound{setup: float64(t1-t0) / 1e9, traced: rec != nil, chain: c, load: l}
	r.ph, err = l.runPhase(d, rec)
	if err != nil {
		res.problem("round %d: %v", round, err)
	}

	// Quiescence, then conservation and ledger reconciliation over
	// everything the chain carried.
	var quiet bool
	r.waited, quiet = waitQuiet(func() [16]uint64 { return c.counters().key(l.counts()) }, 3, 10*time.Millisecond, 2*time.Second)
	if !quiet {
		res.problem("round %d: chain counters still moving %v after the load stopped", round, r.waited)
	}
	lc := l.counts()
	r.cc = c.counters()
	if lc.corrupt > 0 {
		res.problem("round %d: %d datagrams arrived at the wrong sink or with a wrong size or payload", round, lc.corrupt)
	}
	sentOK := lc.sent - lc.sendErrs
	if drops := r.cc.attributedDrops(); sentOK != lc.delivered+lc.late+lc.corrupt+drops {
		res.problem("round %d: conservation: sent %d != delivered %d + late %d + corrupt %d + attributed drops %d",
			round, sentOK, lc.delivered, lc.late, lc.corrupt, drops)
	}
	col := ledger.NewCollector(ledger.New())
	for k, rt := range c.routers {
		col.AddAccountSource(routerName(k), rt.TokenCache().AccountTotals)
	}
	col.Collect()
	for _, p := range ledger.Reconcile(fmt.Sprintf("round %d", round), col.Ledger(), r.cc.router) {
		res.problem("ledger: %s", p)
	}
	for _, e := range col.Ledger().Totals() {
		r.billed.Packets += e.Packets
		r.billed.Bytes += e.Bytes
	}
	if r.cc.attributedDrops() == 0 && r.billed.Packets != uint64(chainLen)*sentOK {
		res.problem("round %d: ledger bills %d packets, want %d routers x %d datagrams", round, r.billed.Packets, chainLen, sentOK)
	}
	return r, nil
}

// poolPhases merges the measured phases of rounds into one: counts,
// latency samples, process cost and seconds add up.
func poolPhases(rs []*dgRound) *dgPhase {
	p := &dgPhase{}
	for _, r := range rs {
		c := r.ph.counts
		p.counts = dgCounts{p.counts.sent + c.sent, p.counts.sendErrs + c.sendErrs, p.counts.delivered + c.delivered,
			p.counts.bytes + c.bytes, p.counts.late + c.late, p.counts.corrupt + c.corrupt, p.counts.reclaims + c.reclaims}
		p.lat.merge(&r.ph.lat)
		p.send.merge(&r.ph.send)
		p.proc.add(r.ph.proc)
		p.elapsed += r.ph.elapsed
	}
	return p
}

// runDatagram runs mesh-datagram (tunnel false) or tunnel-datagram.
func runDatagram(cfg runConfig, tunnel bool) *result {
	res := newResult()
	name, window := "mesh-datagram", meshWindow
	if tunnel {
		name, window = "tunnel-datagram", tunnelWindow
	}
	res.infof("workload %s: %d rounds, each a fresh chain of %d token-guarded routers with %d flows x %d datagrams in flight",
		name, rounds, chainLen, dgFlows, window)
	var rec *recorder
	if cfg.traced {
		rec = &recorder{}
	}
	peak := startGoroutinePeak()
	setupBuf := rec.buf()
	var all, plain, traced []*dgRound
	for round := 0; round < rounds; round++ {
		var phaseRec *recorder
		if cfg.traced && round%2 == 1 {
			phaseRec = rec
		}
		r, err := runDatagramRound(cfg, tunnel, window, round, cfg.measure/rounds, setupBuf, phaseRec, res)
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
		// Every datagram of the round counts, warm-up included.
		lc := r.load.counts()
		res.attempted += lc.sent
		res.failed += lc.failed()
	}
	peakG := peak.Stop()

	// End-to-end metrics: the untraced rounds pooled.
	var setups []float64
	for _, r := range all {
		setups = append(setups, r.setup)
	}
	res.set("setup_s", median(setups))
	u := poolPhases(plain)
	res.set("ops_per_s", u.opsPerSec())
	res.set("goodput_MBps", float64(u.counts.bytes)/1e6/u.elapsed)
	res.set("lat_p50_us", u.lat.quantile(0.50)/1e3)
	res.set("cpu_ms_per_MB", float64(u.proc.cpu)/float64(u.counts.bytes))
	res.set("mem_peak_MB", peakRSSMB())
	var lost, late, sendErrs uint64
	for _, r := range all {
		lc := r.load.counts()
		lost += lc.reclaims
		late += lc.late
		sendErrs += lc.sendErrs
	}
	res.infof("sent %d datagrams in %d rounds measured for %v each (%d lost, %d late, %d send errors)",
		res.attempted, rounds, cfg.measure/rounds, lost, late, sendErrs)
	if !cfg.traced {
		return res
	}

	// Per-layer metrics: counts summed over every round's chain, costs
	// from the untraced rounds, spans from the traced ones.
	var cc chainCounters
	var billed ledger.Entry
	var arrived, reclaims uint64
	var waits []float64
	for _, r := range all {
		cc.add(r.cc)
		billed.Packets += r.billed.Packets
		billed.Bytes += r.billed.Bytes
		lc := r.load.counts()
		arrived += lc.delivered + lc.late + lc.corrupt
		reclaims += lc.reclaims
		waits = append(waits, float64(r.waited)/1e6)
	}
	last := all[len(all)-1]
	res.set("directory.routes_us", median(rec.durations(spanDirRoutes))/1e3)
	res.set("directory.queries", float64(last.chain.svc.RouteQueries))
	rp := replayChain(last.chain, last.load)
	res.set("token.issue_us", rp.issueNs/1e3)
	res.set("token.check_ns", rp.checkNs)
	res.set("token.verifies", float64(cc.verifies))
	res.set("token.hit_ratio", float64(cc.hits)/float64(cc.hits+cc.verifies))
	res.set("token.authorized", float64(cc.router.TokenAuthorized))
	res.set("viper.encode_ns", rp.encodeNs)
	res.set("viper.decode_ns", rp.decodeNs)
	res.set("viper.overhead_bytes_per_pkt", rp.overhead)
	res.set("dataplane.hop_ns", rp.hopNs)
	res.set("dataplane.forwarded", float64(cc.router.Forwarded))
	hops := float64(cc.router.Forwarded) / float64(arrived)
	res.set("dataplane.hops_per_pkt", hops)
	qf := cc.router.Drops[stats.DropQueueFull]
	res.set("dataplane.drops_queue_full", float64(qf))
	res.set("dataplane.drops_other", float64(cc.routerDrops()-qf))

	sends := rec.durations(spanSend)
	res.set("livenet.send_us_p50", quantile(sends, 0.50)/1e3)
	res.set("livenet.send_us_p99", quantile(sends, 0.99)/1e3)
	res.set("livenet.transit_us_p50", quantile(transits(rec), 0.50)/1e3)
	res.set("livenet.lat_p99_us", u.lat.quantile(0.99)/1e3)
	delivered := float64(u.counts.delivered)
	allocs := float64(u.proc.mallocs) / delivered
	res.set("livenet.allocs_per_pkt", allocs)
	res.set("livenet.link_drops", float64(cc.linkDrops))
	cpuPkt := float64(u.proc.cpu) / delivered
	explained := rp.encodeNs + rp.decodeNs + hops*rp.hopNs
	res.set("livenet.cpu_ns_per_pkt", cpuPkt)
	res.set("livenet.substrate_ns_per_pkt", cpuPkt-explained)
	res.infof("per-packet CPU %.0f ns = viper encode %.0f + decode %.0f + %.2f hops x dataplane %.0f ns + livenet substrate remainder %.0f ns",
		cpuPkt, rp.encodeNs, rp.decodeNs, hops, rp.hopNs, cpuPkt-explained)

	if tunnel {
		res.set("udpnet.encapsulated", float64(cc.tunnel.Encapsulated))
		res.set("udpnet.decapsulated", float64(cc.tunnel.Decapsulated))
		res.set("udpnet.send_errors", float64(cc.tunnel.SendErrors))
		res.set("udpnet.dropped", float64(cc.tunnel.Dropped))
		res.set("udpnet.decode_errors", float64(cc.tunnel.DecodeErrors+cc.bridgeErr))
		res.set("udpnet.attach_us", median(rec.durations(spanAttach))/1e3)
	} else {
		res.unavailable("no udpnet tunnel on this workload", "udpnet.encapsulated", "udpnet.decapsulated",
			"udpnet.send_errors", "udpnet.dropped", "udpnet.decode_errors", "udpnet.attach_us")
	}
	res.unavailable("datagram workloads do not use VMTP", "vmtp.calls_completed", "vmtp.calls_failed",
		"vmtp.retransmissions", "vmtp.selective_resends", "vmtp.dup_requests", "vmtp.queue_drops",
		"vmtp.retx_per_MB", "vmtp.group_rtt_p50_us", "vmtp.group_rtt_p99_us")
	res.unavailable("datagram workloads do not use the gateway", "gateway.start_us", "gateway.dial_us",
		"gateway.rpc_p99_us", "gateway.write_us_p99", "gateway.groups_sent", "gateway.resets", "gateway.socks_errors",
		"gateway.open_failures", "gateway.billed_bytes_per_byte")
	res.set("ledger.billed_packets", float64(billed.Packets))
	res.set("ledger.billed_bytes", float64(billed.Bytes))
	res.set("ledger.reconcile_wait_ms", median(waits))
	res.set("go.allocs_per_op", allocs)
	res.set("go.bytes_per_op", float64(u.proc.bytes)/delivered)
	res.set("go.gc_cycles", float64(u.proc.gcCycles)/float64(len(plain)))
	res.set("go.gc_pause_ms", float64(u.proc.gcPause)/1e6/float64(len(plain)))
	res.set("go.goroutines_peak", float64(peakG))
	res.set("bench.slot_reclaims", float64(reclaims))
	res.set("bench.fail_ratio", float64(res.failed)/float64(max(res.attempted, 1)))
	res.set("bench.trace_overhead_pct", 100*(1-poolPhases(traced).opsPerSec()/u.opsPerSec()))
	writeSpans(res, rec, cfg.spanOut)
	return res
}

// transits joins each sampled delivery span to its send span: the time
// from Send returning to the delivery handler starting.
func transits(rec *recorder) []float64 {
	sendEnd := map[uint64]int64{}
	rec.each(func(s span) {
		if s.name == spanSend {
			sendEnd[spanID(s.op, spanSend)] = s.end
		}
	})
	var out []float64
	rec.each(func(s span) {
		if s.name == spanDeliver {
			if e, ok := sendEnd[s.parent]; ok {
				out = append(out, float64(s.start-e))
			}
		}
	})
	return out
}

func writeSpans(res *result, rec *recorder, path string) {
	res.infof("traced run recorded %d spans", rec.count())
	if path == "" {
		return
	}
	if err := rec.write(path); err != nil {
		res.infof("spans not written: %v", err)
		return
	}
	res.infof("spans written to %s", path)
}
