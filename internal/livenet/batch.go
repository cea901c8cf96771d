package livenet

// This file is the livenet substrate's forwarding machinery: links are
// single-producer/single-consumer frame rings (internal/ring), and each
// node runs shard workers that drain whole batches. A router decides a
// batch through dataplane.DecideBatch and flushes the results port by
// port. The per-frame work — byte surgery, trace hops, flight events —
// runs frame at a time in arrival order; what amortizes is everything
// around it: one ring handoff per batch instead of per frame, one
// counter flush per batch, and one producer lock per output port per
// batch. WithBatchSize(1) degenerates to a one-frame handoff.
//
// Concurrency discipline:
//
//   - Receive: every pipe has exactly one consumer — the shard worker
//     its receive end was assigned to (addRx, round-robin). That is the
//     single-consumer half of the ring contract, held structurally.
//   - Transmit: any worker (and any host goroutine) may push to a pipe;
//     the producer side is serialized by pipe.mu, taken once per batch
//     flush, which turns the SPSC ring into an MPSC queue.
//   - Sleep/wake: a producer publishes frames and then rings the
//     consumer shard's doorbell (cap-1 channel, non-blocking send); a
//     consumer pops and then rings the pipe's space doorbell the same
//     way. A worker sleeps only after a full sweep of its pipes popped
//     nothing, and any push after its last pop leaves a doorbell token
//     behind, so wakeups are never lost. Neither side ever spins.
//
// Ordering: frames bound for the same output port flush in arrival
// order, so per-flow FIFO is preserved. Frames of one batch bound for
// different ports may overtake each other, which concurrent routers
// already allow.
//
// Equivalence with the event-driven substrate is enforced by the
// netsim-vs-livenet differential suites in internal/check, swept across
// batch sizes and shard counts. See DESIGN.md §11 for the batch
// contract.

import (
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/pool"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// pipe is one direction of a link: a frame ring plus the doorbells that
// let both ends sleep. port is the consumer's arrival port; link carries
// the fault-injection lottery, drawn per frame at dequeue.
type pipe struct {
	r    *ring.SPSC[Frame]
	port uint8
	link *Link

	// mu serializes producers; a batch flush locks it once for the whole
	// push, which is the MPSC discipline TestHammerMutexedProducers pins.
	mu sync.Mutex

	// bell wakes the consumer shard after a publish; set by addRx when
	// the pipe is assigned to its (single) consumer worker.
	bell chan struct{}
	// space wakes a backpressured producer after a pop frees slots.
	space chan struct{}
	// rdone is the consumer node's done channel: producers blocked on a
	// full ring must not outlive the consumer.
	rdone <-chan struct{}
}

func newPipe(depth int, port uint8, link *Link, rcv *node) *pipe {
	return &pipe{
		r:     ring.New[Frame](depth),
		port:  port,
		link:  link,
		space: make(chan struct{}, 1),
		rdone: rcv.done,
	}
}

// push transfers frames into the ring, parking on the space doorbell
// under backpressure until the consumer frees slots or either end shuts
// down. It returns how many frames transferred: ownership of those moves
// to the consumer, the caller keeps (and must account for) the rest.
func (p *pipe) push(frames []Frame, sdone <-chan struct{}) int {
	sent := 0
	for sent < len(frames) {
		p.mu.Lock()
		n := p.r.PushBatch(frames[sent:])
		p.mu.Unlock()
		if n > 0 {
			sent += n
			select {
			case p.bell <- struct{}{}:
			default:
			}
			continue
		}
		select {
		case <-p.space:
		case <-sdone:
			return sent
		case <-p.rdone:
			return sent
		}
	}
	return sent
}

// tryPush is push without the park: it transfers what fits and returns
// immediately. Router flushes use it — see flushTx for why a router
// never parks.
func (p *pipe) tryPush(frames []Frame) int {
	p.mu.Lock()
	n := p.r.PushBatch(frames)
	p.mu.Unlock()
	if n > 0 {
		select {
		case p.bell <- struct{}{}:
		default:
		}
	}
	return n
}

// pop drains up to len(dst) frames and, if anything moved, rings the
// space doorbell so a parked producer resumes. Consumer-side only.
func (p *pipe) pop(dst []Frame) int {
	n := p.r.PopBatch(dst)
	if n > 0 {
		select {
		case p.space <- struct{}{}:
		default:
		}
	}
	return n
}

// shard is one forwarding worker's receive set: the pipes it alone
// drains, published copy-on-write so the worker reads them lock-free,
// and the doorbell producers ring to wake it.
type shard struct {
	bell  chan struct{}
	pipes atomic.Pointer[[]*pipe]
}

func newShards(n int) []*shard {
	s := make([]*shard, n)
	for i := range s {
		s[i] = &shard{bell: make(chan struct{}, 1)}
	}
	return s
}

// addRx assigns a receive pipe to one of the node's shard workers
// (round-robin over input ports) and publishes the worker's pipe list
// copy-on-write. The doorbell ring at the end makes a pipe wired after
// traffic started visible to an already-sleeping worker.
func (nd *node) addRx(p *pipe) {
	nd.mu.Lock()
	sh := nd.rx[nd.nextRx%len(nd.rx)]
	nd.nextRx++
	p.bell = sh.bell
	var list []*pipe
	if old := sh.pipes.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, p)
	sh.pipes.Store(&list)
	nd.mu.Unlock()
	select {
	case sh.bell <- struct{}{}:
	default:
	}
}

// addTx registers a transmit pipe under an output port.
func (nd *node) addTx(port uint8, p *pipe) {
	nd.mu.Lock()
	nd.out[port] = p
	nd.mu.Unlock()
}

// drainPipe pops up to one batch from p, draws the link's fault lottery
// per frame, stamps arrivals for traced frames, and appends the survivors to sc.in. The
// return value counts everything popped — survivors and casualties — so
// the caller can tell an empty pipe from a lossy one.
func (nd *node) drainPipe(p *pipe, sc *batchScratch) int {
	n := p.pop(sc.tmp)
	for i := 0; i < n; i++ {
		f := sc.tmp[i]
		sc.tmp[i] = Frame{}
		if p.link.drops() {
			if f.Trace != nil {
				f.Trace.Add(trace.HopEvent{
					Node: nd.name, InPort: p.port, Action: trace.ActionLost,
					At: clock.Wall.NowNanos(),
				})
				f.Trace.Done()
			}
			f.release()
			continue
		}
		var arrived int64
		if f.Trace != nil {
			arrived = clock.Wall.NowNanos()
		}
		sc.in = append(sc.in, inFrame{port: p.port, frame: f, arrived: arrived})
	}
	return n
}

// txAccum collects one output port's frames for a single flush. The
// inFrame wrapper keeps each frame's INBOUND port and arrival stamp so a
// failed transmit is drop-accounted against the arrival.
type txAccum struct {
	port  uint8
	items []inFrame
}

// batchScratch is one worker's reusable batch state: after warmup every
// slice has reached its working capacity and a steady-state batch
// allocates nothing (TestForwardHopAllocsBatched).
type batchScratch struct {
	tmp     []Frame                // pop destination, len = batch size
	in      []inFrame              // work list: drain survivors, then re-entered frames
	bf      []dataplane.BatchFrame // the kernel's view of sc.in, index-aligned
	bs      dataplane.BatchStats
	txIdx   map[uint8]int // output port -> index into tx; persists across batches
	tx      []txAccum
	touched []int   // tx indices with frames this batch
	flush   []Frame // per-port push buffer
}

func newBatchScratch(batchSize int) *batchScratch {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &batchScratch{
		tmp:   make([]Frame, batchSize),
		in:    make([]inFrame, 0, batchSize),
		bf:    make([]dataplane.BatchFrame, 0, batchSize),
		txIdx: make(map[uint8]int),
	}
}

// runShard is a router worker: sweep the shard's pipes, forward
// each drained batch, sleep on the doorbell when a full sweep comes up
// empty.
func (r *Router) runShard(sh *shard) {
	sc := newBatchScratch(r.netw.cfg.batchSize)
	for {
		select {
		case <-r.done:
			return
		default:
		}
		popped := 0
		if pl := sh.pipes.Load(); pl != nil {
			for _, p := range *pl {
				sc.in = sc.in[:0]
				popped += r.node.drainPipe(p, sc)
				if len(sc.in) > 0 {
					r.forwardBatch(sc)
				}
			}
		}
		if popped == 0 {
			select {
			case <-sh.bell:
			case <-r.done:
				return
			}
		}
	}
}

// mirrorHop performs the §6.2 software-router byte surgery for one
// authorized frame — swap the arrival header in place, build the
// mirrored return segment, append it over the trailer descriptor — and
// assembles the next-hop frame in the same buffer. ok is false when the
// bytes are malformed (the caller drops DropNotSirpent).
func (r *Router) mirrorHop(inf *inFrame, seg *viper.Segment, rest []byte, ts *dataplane.TokenState) (Frame, bool) {
	// The frame is ours, so the header is swapped in place and aliased;
	// the mirrored append below copies the bytes into the trailer.
	var hdrInfo []byte
	if inf.frame.Hdr != nil {
		if err := ethernet.SwapInPlace(inf.frame.Hdr); err != nil {
			return Frame{}, false
		}
		hdrInfo = inf.frame.Hdr
	}
	ret := dataplane.ReturnSegment(inf.port, seg, hdrInfo, ts.Cache(), false)
	// ret's fields alias the dead front region (token, header); the
	// append writes only past the old trailer descriptor — disjoint.
	out, err := dataplane.AppendTrailerSegment(rest, &ret)
	if err != nil {
		return Frame{}, false
	}
	f := Frame{Pkt: out, Trace: inf.frame.Trace, buf: inf.frame.buf}
	if len(rest) > 0 && len(out) > 0 && &out[0] != &rest[0] {
		// The headroom ran out and the append reallocated: out starts a
		// fresh array (its own recycling target), and the old buffer —
		// still aliased by the header and token — is left to the
		// collector.
		f.buf = out[:0]
	}
	if len(seg.PortInfo) > 0 {
		// The next hop's header aliases the stripped segment's bytes in
		// the dead front region; it travels with the buffer it aliases. A
		// DAG segment's PortInfo is the alternate blob — its primary
		// network header is embedded inside and extracted without copying.
		if viper.IsDAGSegment(seg) {
			pi, ok := viper.DAGPrimaryInfo(seg)
			if !ok {
				return Frame{}, false
			}
			if len(pi) > 0 {
				f.Hdr = pi
			}
		} else {
			f.Hdr = seg.PortInfo
		}
	}
	return f, true
}

// stage appends the kernel's view of work item sc.in[i] to sc.bf. The
// charge size matches the simulator's FrameSize: the full pre-strip
// packet plus the arrival Ethernet header, so per-account byte totals
// agree across substrates.
func (sc *batchScratch) stage(i int) {
	inf := &sc.in[i]
	cb := uint64(len(inf.frame.Pkt))
	if inf.frame.Hdr != nil {
		cb += ethernet.HeaderLen
	}
	sc.bf = append(sc.bf, dataplane.BatchFrame{InPort: inf.port, ChargeBytes: cb, Pkt: inf.frame.Pkt})
}

// reenter appends a frame produced mid-batch — a multicast branch copy
// or a failover splice — to the batch's work list; forwardBatch decides
// and disposes of it after the frames already queued.
func (sc *batchScratch) reenter(inf inFrame) {
	sc.in = append(sc.in, inf)
	sc.stage(len(sc.in) - 1)
}

// forwardBatch runs one drained batch through the hop kernel and
// flushes the results port by port. Decisions (DecideBatch) and counter
// publication (FlushBatch) amortize across the batch; the per-frame
// sinks — flight events, trace hops, the byte surgery itself — run
// frame at a time in arrival order. DecideBatch stops after a frame
// whose token is uncached: that token verifies synchronously (Block
// mode) before the rest of the batch is decided, so later frames with
// the same token hit the cache and one new token costs one HMAC
// verification however many of its frames share the batch.
func (r *Router) forwardBatch(sc *batchScratch) {
	ts := r.tok.Load()
	sc.bf = sc.bf[:0]
	for i := range sc.in {
		sc.stage(i)
	}
	for i := 0; i < len(sc.bf); {
		for end := i + r.plane.DecideBatch(ts, sc.bf[i:], &sc.bs); i < end; i++ {
			r.dispose(sc, i, ts)
		}
	}
	r.flushTx(sc)
	r.plane.FlushBatch(&sc.bs)
	clear(sc.in)
	clear(sc.bf)
	sc.in = sc.in[:0]
	sc.bf = sc.bf[:0]
}

// dispose realizes work item i's verdict: drop, multicast fanout,
// failover splice, local delivery, or — the common case — the trailer
// surgery and a place in its output port's flush. Fanout and failover
// append new work items, so they get copies and nothing here touches
// inf or b after calling them.
func (r *Router) dispose(sc *batchScratch, i int, ts *dataplane.TokenState) {
	inf := &sc.in[i]
	b := &sc.bf[i]
	v := b.Verdict
	if v.Action == dataplane.ActionAwaitToken {
		// Livenet realizes the Block mode: the uncached token is verified
		// synchronously — the HMAC computation is the verification
		// latency the packet waits out.
		in := dataplane.HopInput{InPort: b.InPort, Seg: &b.Seg, ChargeBytes: b.ChargeBytes}
		v = r.plane.InstallTokenBatched(ts, &in, &sc.bs)
	}
	switch v.Action {
	case dataplane.ActionDrop:
		r.drop(sc, v.Reason, *inf, v.Account)
		return
	case dataplane.ActionTree:
		seg := b.Seg
		r.fanoutTree(sc, *inf, &seg, b.Rest)
		return
	case dataplane.ActionFailover:
		seg := b.Seg
		r.failover(sc, *inf, &seg, v)
		return
	}
	f, ok := r.mirrorHop(inf, &b.Seg, b.Rest, ts)
	if !ok {
		r.drop(sc, stats.DropNotSirpent, *inf, 0)
		return
	}
	if v.Action == dataplane.ActionLocal {
		r.plane.LocalBatched(&sc.bs, inf.port, f.Trace, inf.arrived)
		if r.local != nil {
			r.local(f.Pkt)
		} else {
			f.release()
		}
		return
	}
	// The forward hop is traced now but transmitted at flush; the worker
	// owns the frame until the ring push publishes it, so the
	// append-before-send rule holds.
	r.plane.TraceForward(f.Trace, inf.port, v.OutPort, inf.arrived)
	r.accumulate(sc, v.OutPort, inFrame{port: inf.port, frame: f, arrived: inf.arrived})
}

// drop accounts one discarded frame through the dataplane's sinks
// (batched counter, flight event, trace terminal hop) and recycles its
// buffer. account names the refused account on token denials.
func (r *Router) drop(sc *batchScratch, reason stats.DropReason, inf inFrame, account uint32) {
	r.plane.DropBatched(&sc.bs, reason, inf.port, account, inf.frame.Trace, inf.arrived)
	inf.frame.release()
}

// failover realizes an ActionFailover verdict on the wire substrate:
// record the diversion, splice the chosen alternate over the remaining
// forward route in the frame's own buffer (SpliceAltRoute — in place
// unless the branch header outgrows the buffer's capacity), and re-enter
// the batch on the branch head, which carries its own token. The cap
// stops a crafted alternate whose head is itself a dead-primary DAG
// segment from cycling forever. The no-failover path never reaches
// here, so its 0 allocs/hop contract is untouched.
func (r *Router) failover(sc *batchScratch, inf inFrame, seg *viper.Segment, v dataplane.Verdict) {
	if inf.failovers >= dataplane.MaxFailoverDepth {
		r.drop(sc, stats.DropLinkDown, inf, 0)
		return
	}
	r.plane.Failover(inf.port, seg.Port, v.OutPort, v.AltRank, inf.frame.Trace, inf.arrived)
	old := inf.frame.Pkt
	out, err := dataplane.SpliceAltRoute(old, v.AltRoute)
	if err != nil {
		r.drop(sc, stats.DropNotSirpent, inf, 0)
		return
	}
	inf.frame.Pkt = out
	if len(old) > 0 && len(out) > 0 && &out[0] != &old[0] {
		// The splice outgrew the buffer and reallocated: out starts a
		// fresh array (its own recycling target); the old buffer, still
		// aliased by the arrival header, is left to the collector.
		inf.frame.buf = out[:0]
	}
	inf.failovers++
	sc.reenter(inf)
}

// fanoutTree handles tree-structured multicast (§2): fan one copy of the
// packet down each branch by splicing the branch's segments in front of
// the remaining bytes. Each branch gets its own pooled buffer (and its
// own header copy — forwarding swaps headers in place, so branches must
// not share one) and re-enters the batch; the original buffer is
// recycled after the fanout. A traced packet's record ends here:
// branches run on concurrent paths and must not share one record, so
// they continue untraced.
func (r *Router) fanoutTree(sc *batchScratch, inf inFrame, seg *viper.Segment, rest []byte) {
	branches, err := viper.DecodeTree(seg.PortInfo)
	if err != nil {
		r.drop(sc, stats.DropBadPort, inf, 0)
		return
	}
	r.plane.CloseFanout(inf.frame.Trace, inf.port, seg.Port, inf.arrived)
	inf.frame.Trace = nil
	for _, br := range branches {
		headLen := 0
		for i := range br {
			headLen += br[i].WireLen()
		}
		buf := pool.Get(headLen + len(rest) + frameHeadroom(len(br), headLen))
		full := buf
		ok := true
		for i := range br {
			if buf, err = viper.AppendSegment(buf, &br[i]); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			r.drop(sc, stats.DropBadPort, inFrame{port: inf.port, frame: Frame{Pkt: buf, buf: full}}, 0)
			continue
		}
		buf = append(buf, rest...)
		var hdr []byte
		if inf.frame.Hdr != nil {
			hdr = append([]byte(nil), inf.frame.Hdr...)
		}
		sc.reenter(inFrame{port: inf.port, frame: Frame{Hdr: hdr, Pkt: buf, buf: full}})
	}
	inf.frame.release()
}

// accumulate appends an outbound frame to its port's transmit batch.
// txIdx persists across batches (a router's port set is stable), touched
// records which accumulators hold frames this batch.
func (r *Router) accumulate(sc *batchScratch, port uint8, item inFrame) {
	idx, ok := sc.txIdx[port]
	if !ok {
		idx = len(sc.tx)
		sc.tx = append(sc.tx, txAccum{port: port})
		sc.txIdx[port] = idx
	}
	a := &sc.tx[idx]
	if len(a.items) == 0 {
		sc.touched = append(sc.touched, idx)
	}
	a.items = append(a.items, item)
}

// flushTx transmits every accumulated output batch: one pipe lookup and
// one producer lock per port per batch instead of per frame. The push
// never parks (tryPush): frames that do not fit are dropped
// DropQueueFull, as the simulation substrate's outport does. A parking
// router transmit would let two adjacent routers wedge each other under
// bidirectional saturation (each parked on the other's full ring, so
// neither drains) — a circular wait no queue depth removes. Hosts keep
// the parking push; their backpressure cannot cycle because routers
// always drain. DropBadPort covers an unwired port, DropTxError a
// shutdown race. The trace record of a failed frame already carries its
// forward hop, so it reads "attempted forward, then dropped".
func (r *Router) flushTx(sc *batchScratch) {
	for _, idx := range sc.touched {
		a := &sc.tx[idx]
		p := r.node.txPipe(a.port)
		sent := 0
		reason := stats.DropBadPort
		if p != nil {
			if cap(sc.flush) < len(a.items) {
				sc.flush = make([]Frame, len(a.items))
			}
			fl := sc.flush[:len(a.items)]
			for i := range a.items {
				fl[i] = a.items[i].frame
			}
			sent = p.tryPush(fl)
			for i := range fl {
				fl[i] = Frame{}
			}
			r.counters.forwarded.Add(uint64(sent))
			reason = stats.DropQueueFull
			select {
			case <-r.done:
				reason = stats.DropTxError
			default:
			}
		}
		for i := sent; i < len(a.items); i++ {
			it := &a.items[i]
			r.plane.DropBatched(&sc.bs, reason, it.port, 0, it.frame.Trace, it.arrived)
			it.frame.release()
		}
		for i := range a.items {
			a.items[i] = inFrame{}
		}
		a.items = a.items[:0]
	}
	sc.touched = sc.touched[:0]
}

// runShard is the host receive loop: single shard, so a host's
// deliveries stay in order across all its ports.
func (h *Host) runShard(sh *shard) {
	sc := newBatchScratch(h.netw.cfg.batchSize)
	for {
		select {
		case <-h.done:
			return
		default:
		}
		popped := 0
		if pl := sh.pipes.Load(); pl != nil {
			for _, p := range *pl {
				sc.in = sc.in[:0]
				popped += h.node.drainPipe(p, sc)
				for i := range sc.in {
					h.receive(sc.in[i])
					sc.in[i] = inFrame{}
				}
			}
		}
		if popped == 0 {
			select {
			case <-sh.bell:
			case <-h.done:
				return
			}
		}
	}
}
