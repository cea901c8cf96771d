package vmtp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/viper"
)

// This file is the VMTP protocol state machine shared by both drivers:
// group admission and reassembly, the selective and full-group acks,
// the response cache, client retransmission and RTT estimation. Its
// methods run under the driver's lock (the simulated driver is
// single-threaded and needs none), change state, and return an out
// naming what the driver does next: one transmission, a request group
// to hand to the handler, or a finished call. The driver acts on it
// after releasing its lock.

// Config tunes an endpoint, simulated or real-time. The zero value
// gets the defaults given per field.
type Config struct {
	// MaxPacketData bounds the data per packet; default MaxPacketData
	// (§5's "roughly 1 kilobyte transport packet").
	MaxPacketData int
	// PacingGap is VMTP's rate-based flow control: the inter-packet
	// gap within a packet group "to avoid overruns" (§4.3). Zero sends
	// back to back.
	PacingGap time.Duration
	// BaseTimeout seeds the retransmission timer before an RTT
	// estimate exists. Default 50ms.
	BaseTimeout time.Duration
	// MaxTimeout caps the exponential retransmission backoff.
	// Default 2s.
	MaxTimeout time.Duration
	// MaxRetries bounds data retransmissions on one route; past it the
	// call fails over to the next alternate route, or fails. Probes
	// after a full-group ack do not count. Default 8.
	MaxRetries int
	// CallTimeout bounds one whole transaction, including the time a
	// remote handler may block for backpressure. Default 2m.
	CallTimeout time.Duration
	// GapAckDelay is how long a receiver waits on an incomplete quiet
	// group before sending a selective ack of what it has (§4.3).
	// Default 2ms.
	GapAckDelay time.Duration
	// GroupTimeout discards an incomplete request group if the missing
	// packets never arrive. Default 10s.
	GroupTimeout time.Duration
	// ResponseCacheTTL is the duplicate-suppression window. Default 10s.
	ResponseCacheTTL time.Duration
	// MPL is the maximum packet lifetime (§4.2). Default 30s.
	MPL time.Duration
	// FutureSlack tolerates receiver clocks behind senders. Default 5s.
	FutureSlack time.Duration
	// QueueDepth is the real-time receive queue between Deliver and
	// the processing goroutine. Default 512.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	def := func(v *time.Duration, d time.Duration) {
		if *v == 0 {
			*v = d
		}
	}
	if c.MaxPacketData == 0 {
		c.MaxPacketData = MaxPacketData
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 512
	}
	def(&c.BaseTimeout, 50*time.Millisecond)
	def(&c.MaxTimeout, 2*time.Second)
	def(&c.CallTimeout, 2*time.Minute)
	def(&c.GapAckDelay, 2*time.Millisecond)
	def(&c.GroupTimeout, 10*time.Second)
	def(&c.ResponseCacheTTL, 10*time.Second)
	def(&c.MPL, 30*time.Second)
	def(&c.FutureSlack, 5*time.Second)
	return c
}

// Stats counts transport events.
type Stats struct {
	CallsStarted     uint64
	CallsCompleted   uint64
	CallsFailed      uint64
	Retransmissions  uint64
	SelectiveResends uint64 // packets resent due to receiver masks
	RouteFailovers   uint64
	AdvisorySkips    uint64 // routes skipped on directory advice (§6.3)
	StaleDrops       uint64 // packets older than MPL (§4.2)
	ChecksumDrops    uint64 // corrupted, truncated or malformed packets (§4.1)
	Misdelivered     uint64 // entity identifier mismatch (§4.1)
	DupRequests      uint64 // answered from the response cache
	AcksSent         uint64
	QueueDrops       uint64 // RT receive-queue overflow (real-time endpoints only)
}

// Errors.
var (
	ErrNoRoutes    = errors.New("vmtp: no routes supplied")
	ErrCallFailed  = errors.New("vmtp: transaction failed (retries exhausted)")
	ErrCallTimeout = errors.New("vmtp: transaction timed out")
	ErrClosed      = errors.New("vmtp: endpoint closed")
)

// maxGroupLen bounds the reassembly buffer a hostile or corrupted
// header can make a receiver allocate.
const maxGroupLen = MaxGroupPackets * 64 * 1024

// probeInterval is the floor of the probe cadence once a request is
// fully acknowledged: the handler may block for a long time, and the
// probes only keep the transaction alive.
const probeInterval = 50 * time.Millisecond

// driver is what the core needs of its clock: monotonic time for
// timers and RTT samples, the creation-timestamp clock of §4.2, and
// timers whose expiry runs t.fire under the driver's lock.
type driver interface {
	now() time.Duration
	stamp() clock.Timestamp
	after(d time.Duration, t timed) timer
}

// timer is a driver timer; *time.Timer satisfies it.
type timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// timed is a protocol object with a timer: a call (retransmission),
// a request group (gap ack and GroupTimeout) or a cached response
// (TTL).
type timed interface {
	fire(c *core) out
}

// send is one transmission: the packets of pkts selected by mask, in
// order, along route; or, when pkts is nil, the lone data-less packet
// ctl (an ack or a probe). An empty route sends nothing.
type send struct {
	route []viper.Segment
	pkts  []*Packet
	mask  uint32
	ctl   Header
}

// each yields the packets of s in transmission order with the pacing
// wait before each (§4.3): none before the first, PacingGap between
// the rest.
func (s send) each(gap time.Duration, emit func(h Header, data []byte, wait time.Duration)) {
	if len(s.route) == 0 {
		return
	}
	if s.pkts == nil {
		emit(s.ctl, nil, 0)
		return
	}
	wait := time.Duration(0)
	for i, p := range s.pkts {
		if s.mask&(1<<uint(i)) != 0 {
			emit(p.Header, p.Data, wait)
			wait = gap
		}
	}
}

// out is what one core step leaves its driver to do once the lock is
// released: transmit tx, run the handler on serve (a newly complete
// request group), and report done's outcome to its caller.
type out struct {
	tx    send
	serve *rxGroup
	done  *call
}

type groupKey struct {
	client uint64
	txn    uint32
}

// rxGroup reassembles one packet group.
type rxGroup struct {
	key      groupKey
	nPkts    uint8
	totalLen int
	mask     uint32
	data     []byte
	ret      []viper.Segment // freshest return route
	served   bool            // handed to the handler
	first    time.Duration   // first arrival (GroupTimeout)
	lastRx   time.Duration   // most recent arrival (gap detection)
	// expire, armed while a request group is incomplete, sends the gap
	// acks and discards the group after GroupTimeout.
	expire timer
}

func (g *rxGroup) complete() bool { return g.mask == fullMask(g.nPkts) }

func fullMask(n uint8) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (uint32(1) << n) - 1
}

// malformed reports a data packet whose group header cannot be
// honoured: an empty or oversized group, or an index outside it.
func malformed(p *Packet) bool {
	return p.NPkts == 0 || p.NPkts > MaxGroupPackets || p.PktIndex >= p.NPkts || p.TotalLen > maxGroupLen
}

// place records a well-formed packet in its group; it reports false
// for a packet that disagrees with the group's header.
func (g *rxGroup) place(p *Packet) bool {
	if p.NPkts != g.nPkts || int(p.TotalLen) != g.totalLen {
		return false
	}
	bit := uint32(1) << p.PktIndex
	if g.mask&bit == 0 {
		g.mask |= bit
		off := min(int(p.PktIndex)*ChunkSize(g.totalLen, int(g.nPkts)), g.totalLen)
		copy(g.data[off:], p.Data)
	}
	return true
}

type respEntry struct {
	key  groupKey
	pkts []*Packet
	ttl  timer
}

// call is one outstanding client transaction.
type call struct {
	txn       uint32
	server    uint64
	routes    [][]viper.Segment
	route     int // index of the route in use
	pkts      []*Packet
	full      uint32
	acked     uint32
	delivered bool // full group acked: probe, do not retransmit
	retries   int
	timeout   time.Duration
	timer     timer
	resp      *rxGroup
	started   time.Duration
	clean     bool // no retransmissions: the RTT sample is valid (Karn)
	done      func([]byte, error)
	data      []byte // outcome, set when the call leaves the table
	err       error
}

// core is the transaction state of one VMTP entity.
type core struct {
	id  uint64
	cfg Config
	drv driver

	closed  bool
	nextTxn uint32
	calls   map[uint32]*call
	rxReqs  map[groupKey]*rxGroup
	cache   map[groupKey]*respEntry
	srtt    map[uint64]time.Duration
	rttvar  map[uint64]time.Duration
	advisor func(route []viper.Segment) bool

	Stats Stats
}

func (c *core) init(id uint64, cfg Config, drv driver) {
	*c = core{
		id:     id,
		cfg:    cfg.withDefaults(),
		drv:    drv,
		calls:  make(map[uint32]*call),
		rxReqs: make(map[groupKey]*rxGroup),
		cache:  make(map[groupKey]*respEntry),
		srtt:   make(map[uint64]time.Duration),
		rttvar: make(map[uint64]time.Duration),
	}
}

// ID returns the entity identifier.
func (c *core) ID() uint64 { return c.id }

// packets segments a message into one packet group.
func (c *core) packets(kind Kind, client, server uint64, txn uint32, data []byte) ([]*Packet, error) {
	chunks, err := Segment(data, c.cfg.MaxPacketData)
	if err != nil {
		return nil, err
	}
	pkts := make([]*Packet, len(chunks))
	for i, ch := range chunks {
		pkts[i] = &Packet{
			Header: Header{
				Client:   client,
				Server:   server,
				Txn:      txn,
				Kind:     kind,
				PktIndex: uint8(i),
				NPkts:    uint8(len(chunks)),
				TotalLen: uint32(len(data)),
			},
			Data: ch,
		}
	}
	return pkts, nil
}

// receive validates an arriving packet's age (§4.2), its identity
// (§4.1) and its group header, and dispatches it.
func (c *core) receive(p *Packet, ret []viper.Segment) out {
	if p.Timestamp != clock.InvalidTimestamp {
		age := clock.Age(c.drv.stamp(), p.Timestamp)
		if age > c.cfg.MPL.Milliseconds() || age < -c.cfg.FutureSlack.Milliseconds() {
			c.Stats.StaleDrops++
			return out{}
		}
	}
	entity := p.Client
	if p.Kind == KindRequest {
		entity = p.Server
	}
	switch {
	case p.Kind > KindAck:
		return out{}
	case entity != c.id:
		c.Stats.Misdelivered++
		return out{}
	case p.Kind == KindAck:
		return c.ack(p)
	case malformed(p):
		c.Stats.ChecksumDrops++
		return out{}
	case p.Kind == KindRequest:
		return c.request(p, ret)
	}
	return c.response(p)
}

// --- server side ---

func (c *core) request(p *Packet, ret []viper.Segment) out {
	key := groupKey{client: p.Client, txn: p.Txn}
	if e, ok := c.cache[key]; ok {
		// Duplicate of a completed transaction (or a probe for one):
		// replay the cached response (§4's at-most-once behavior).
		c.Stats.DupRequests++
		return out{tx: send{route: ret, pkts: e.pkts, mask: ^uint32(0)}}
	}
	g := c.rxReqs[key]
	if p.Flags&FlagProbe != 0 {
		// Probe for an in-progress transaction: re-ack full receipt so
		// the client keeps waiting. Probes for unknown transactions are
		// ignored; the client's CallTimeout is the backstop.
		if g != nil && g.complete() {
			return out{tx: c.ackOf(g, ret)}
		}
		return out{}
	}
	now := c.drv.now()
	if g == nil {
		g = &rxGroup{key: key, nPkts: p.NPkts, totalLen: int(p.TotalLen), data: make([]byte, p.TotalLen), first: now}
		c.rxReqs[key] = g
	}
	if !g.place(p) {
		c.Stats.ChecksumDrops++
		return out{}
	}
	g.ret = ret
	g.lastRx = now
	switch {
	case !g.complete():
		// Arm the gap-detection selective ack (§4.3).
		if g.expire == nil {
			g.expire = c.drv.after(c.cfg.GapAckDelay, g)
		}
		return out{}
	case g.served:
		// Full duplicate after dispatch: re-ack so the client stays in
		// the probing state instead of retransmitting data.
		return out{tx: c.ackOf(g, ret)}
	}
	g.served = true
	if g.expire != nil {
		g.expire.Stop()
	}
	return out{serve: g}
}

// fire is the group timer: once the incomplete group has gone quiet
// for GapAckDelay, tell the client which packets arrived so only the
// missing are resent (§4.3 selective retransmission), and keep doing
// so until the group completes or GroupTimeout discards it.
func (g *rxGroup) fire(c *core) out {
	if c.closed || c.rxReqs[g.key] != g || g.complete() {
		return out{}
	}
	now := c.drv.now()
	left := g.first + c.cfg.GroupTimeout - now
	if left <= 0 {
		delete(c.rxReqs, g.key)
		return out{}
	}
	g.expire.Reset(min(c.cfg.GapAckDelay, left))
	if now-g.lastRx < c.cfg.GapAckDelay {
		return out{}
	}
	c.Stats.AcksSent++
	return out{tx: c.ackOf(g, g.ret)}
}

// ackOf is the ack carrying g's delivery mask.
func (c *core) ackOf(g *rxGroup, ret []viper.Segment) send {
	return send{route: ret, ctl: Header{
		Client: g.key.client,
		Server: c.id,
		Txn:    g.key.txn,
		Kind:   KindAck,
		NPkts:  g.nPkts,
		Mask:   g.mask,
	}}
}

// accepted is the full-group ack a driver whose handler runs
// asynchronously sends on dispatch: it doubles as "received, response
// pending", so the client stops retransmitting data the moment it
// arrives.
func (c *core) accepted(g *rxGroup) send {
	c.Stats.AcksSent++
	return c.ackOf(g, g.ret)
}

// respond caches the handler's response group pkts for g and sends it
// along the freshest return route seen for the transaction.
func (c *core) respond(g *rxGroup, pkts []*Packet) out {
	delete(c.rxReqs, g.key)
	if c.closed || pkts == nil {
		return out{}
	}
	e := &respEntry{key: g.key, pkts: pkts}
	c.cache[g.key] = e
	e.ttl = c.drv.after(c.cfg.ResponseCacheTTL, e)
	return out{tx: send{route: g.ret, pkts: pkts, mask: ^uint32(0)}}
}

func (e *respEntry) fire(c *core) out {
	if c.cache[e.key] == e {
		delete(c.cache, e.key)
	}
	return out{}
}

// close stops every timer and takes the outstanding calls out of the
// table; the driver fails them with ErrClosed.
func (c *core) close() map[uint32]*call {
	c.closed = true
	for _, g := range c.rxReqs {
		if g.expire != nil {
			g.expire.Stop()
		}
	}
	for _, e := range c.cache {
		e.ttl.Stop()
	}
	calls := c.calls
	c.calls = make(map[uint32]*call)
	for _, cl := range calls {
		cl.timer.Stop()
	}
	return calls
}

// --- client side ---

// begin starts a transaction to server over the alternate routes
// (primary first); done receives the outcome.
func (c *core) begin(server uint64, routes [][]viper.Segment, data []byte, done func([]byte, error)) (out, error) {
	if c.closed {
		return out{}, ErrClosed
	}
	txn := c.nextTxn + 1
	pkts, err := c.packets(KindRequest, c.id, server, txn, data)
	if err != nil {
		return out{}, err
	}
	c.nextTxn = txn
	cl := &call{
		txn:     txn,
		server:  server,
		routes:  routes,
		pkts:    pkts,
		full:    fullMask(uint8(len(pkts))),
		timeout: c.rto(server),
		started: c.drv.now(),
		clean:   true,
		done:    done,
	}
	c.calls[cl.txn] = cl
	c.Stats.CallsStarted++
	cl.timer = c.drv.after(cl.timeout, cl)
	return out{tx: c.requestTx(cl)}, nil
}

// requestTx is the transmission of every request packet not yet
// acked. Routes the advisor reports unhealthy are skipped without
// waiting for a timeout; the last route is always tried.
func (c *core) requestTx(cl *call) send {
	for c.advisor != nil && cl.route+1 < len(cl.routes) && !c.advisor(cl.routes[cl.route]) {
		cl.route++
		cl.retries = 0
		cl.acked = 0
		c.Stats.AdvisorySkips++
	}
	return send{route: cl.routes[cl.route], pkts: cl.pkts, mask: cl.full &^ cl.acked}
}

// fire is the client retransmission timer. Before the full-group ack
// it resends unacked data with exponential backoff, failing over to
// the next route (§6.3: the client "switches between these routes
// based on the performance of the different routes") after MaxRetries;
// after the ack it only probes the server for the response.
func (cl *call) fire(c *core) out {
	if c.calls[cl.txn] != cl {
		return out{}
	}
	if c.drv.now()-cl.started >= c.cfg.CallTimeout {
		return c.finish(cl, nil, fmt.Errorf("%w (txn %d to %#x)", ErrCallTimeout, cl.txn, cl.server))
	}
	if cl.delivered {
		cl.timer.Reset(max(cl.timeout, probeInterval))
		probe := cl.pkts[0].Header
		probe.Flags |= FlagProbe
		return out{tx: send{route: cl.routes[cl.route], ctl: probe}}
	}
	cl.retries++
	cl.clean = false
	if cl.retries <= c.cfg.MaxRetries {
		c.Stats.Retransmissions++
	} else if cl.route+1 < len(cl.routes) {
		cl.route++
		cl.retries = 0
		cl.acked = 0
		c.Stats.RouteFailovers++
	} else {
		return c.finish(cl, nil, fmt.Errorf("%w (txn %d to %#x after %d retries)",
			ErrCallFailed, cl.txn, cl.server, c.cfg.MaxRetries))
	}
	backoff := cl.timeout
	for i := 0; i < cl.retries && backoff < c.cfg.MaxTimeout; i++ {
		backoff *= 2
	}
	cl.timer.Reset(min(backoff, c.cfg.MaxTimeout))
	return out{tx: c.requestTx(cl)}
}

func (c *core) ack(p *Packet) out {
	cl, ok := c.calls[p.Txn]
	if !ok {
		return out{}
	}
	cl.acked |= p.Mask
	if cl.acked&cl.full == cl.full {
		if !cl.delivered {
			// Received, response pending: switch the timer to the
			// gentle probe cadence.
			cl.delivered = true
			cl.timer.Reset(max(cl.timeout, probeInterval))
		}
		return out{}
	}
	// Selective retransmission: resend only what the receiver's mask
	// says is missing (§4.3).
	cl.clean = false
	c.Stats.SelectiveResends++
	cl.timer.Reset(cl.timeout)
	return out{tx: c.requestTx(cl)}
}

func (c *core) response(p *Packet) out {
	cl, ok := c.calls[p.Txn]
	if !ok {
		return out{} // late duplicate response
	}
	if cl.resp == nil {
		cl.resp = &rxGroup{nPkts: p.NPkts, totalLen: int(p.TotalLen), data: make([]byte, p.TotalLen)}
	}
	if !cl.resp.place(p) {
		c.Stats.ChecksumDrops++
		return out{}
	}
	if !cl.resp.complete() {
		cl.timer.Reset(cl.timeout) // keep waiting for the rest of the group
		return out{}
	}
	if cl.clean {
		c.recordRTT(cl.server, c.drv.now()-cl.started)
	}
	return c.finish(cl, cl.resp.data, nil)
}

// finish takes a call out of the table; the driver reports its
// outcome.
func (c *core) finish(cl *call, data []byte, err error) out {
	delete(c.calls, cl.txn)
	cl.timer.Stop()
	if err != nil {
		c.Stats.CallsFailed++
	} else {
		c.Stats.CallsCompleted++
	}
	cl.data, cl.err = data, err
	return out{done: cl}
}

// rto is the adaptive retransmission timeout (Jacobson).
func (c *core) rto(server uint64) time.Duration {
	srtt, ok := c.srtt[server]
	if !ok || srtt == 0 {
		return c.cfg.BaseTimeout
	}
	return min(max(srtt+4*c.rttvar[server], c.cfg.BaseTimeout/4), c.cfg.MaxTimeout)
}

// recordRTT updates the Jacobson estimators with a sample from a call
// that was never retransmitted (Karn's rule).
func (c *core) recordRTT(server uint64, rtt time.Duration) {
	srtt, ok := c.srtt[server]
	if !ok {
		c.srtt[server] = rtt
		c.rttvar[server] = rtt / 2
		return
	}
	diff := rtt - srtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar[server] = (3*c.rttvar[server] + diff) / 4
	c.srtt[server] = (7*srtt + rtt) / 8
}
