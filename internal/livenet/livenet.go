// Package livenet is a goroutine realization of the Sirpent forwarding
// algorithm: hosts and routers are goroutines, links are frame rings,
// and every hop operates on real wire bytes. Where netsim proves the timing
// claims on virtual time, livenet proves the byte-level protocol — the
// per-hop segment strip, the trailer surgery, the return-route reversal —
// under true concurrency.
//
// Routers use the software-router procedure of §6.2: "after fully
// receiving the packet, copying the first header segment to the end of
// the trailer (with suitable modification) and then transmitting the
// packet starting at the following header segment" — implemented as byte
// surgery without decoding the rest of the packet.
//
// # Buffer ownership
//
// Frames travel in pooled buffers (internal/pool) with capacity headroom
// so the per-hop surgery happens in place. Exactly one node owns a
// frame's buffer at any moment; a ring push transfers ownership to the
// receiver. The owner either forwards the frame (ownership moves
// on), delivers it (the buffer is recycled when the handler returns), or
// drops it (the buffer is recycled immediately). Frame.Hdr may alias the
// dead front region of the same buffer — the bytes of already-stripped
// segments — so header and packet live and die together. See DESIGN.md
// §7 for the full rules.
package livenet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/ledger"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/viper"
)

// Frame is what travels on a link: an optional network header (Ethernet
// on multi-access hops, nil on point-to-point) and the encoded VIPER
// packet. Pkt is a pooled buffer owned by whichever node currently holds
// the frame; Hdr either aliases Pkt's backing array (the stripped bytes
// of a previous hop's segment) or is a private copy, and is never valid
// after Pkt is recycled.
type Frame struct {
	Hdr []byte // nil or 14-byte Ethernet header
	Pkt []byte

	// Trace is the packet's hop-level trace record, nil when tracing is
	// off. It shares the frame's ownership rule: the ring push that
	// transfers the buffer also transfers the record, so the sender must
	// append its hop BEFORE pushing and never touch the record after —
	// the happens-before edge of the push is what makes appends safe
	// without a lock.
	Trace *trace.PacketTrace

	// buf is the full-capacity view of Pkt's pooled backing array. Pkt's
	// start drifts forward as hops strip segments, so Pkt alone cannot
	// recover the buffer for recycling; release returns buf to the pool.
	// nil for frames whose packet bytes are not pool-owned.
	buf []byte
}

// release recycles the frame's pooled buffer, invalidating Pkt and any
// Hdr that aliases it. Only the frame's owner may call it, once.
func (f Frame) release() {
	if f.buf != nil {
		pool.Put(f.buf)
	}
}

// inFrame tags a frame with its arrival port. arrived is the wall-clock
// ingress stamp for per-hop latency, taken only for traced frames (the
// untraced path performs no clock reads). failovers counts the DAG
// alternates already spliced in at this hop (see Router.failover).
type inFrame struct {
	port      uint8
	failovers uint8
	frame     Frame
	arrived   int64
}

// Network owns the nodes and coordinates shutdown.
type Network struct {
	wg      sync.WaitGroup
	stopped atomic.Bool
	nodes   []interface{ close() }
	tracer  atomic.Value // *tracerBox
	flight  atomic.Pointer[ledger.FlightRecorder]
	cfg     networkConfig
}

// tracerBox wraps the Tracer interface so atomic.Value always stores
// one concrete type.
type tracerBox struct{ t trace.Tracer }

// networkConfig collects NewNetwork options.
type networkConfig struct {
	batchSize int
	shards    int
	tracer    trace.Tracer
	flight    *ledger.FlightRecorder
	collector *ledger.Collector
}

// NetworkOption configures one NewNetwork call.
type NetworkOption func(*networkConfig)

// WithBatchSize bounds how many frames one dequeue, decision pass, or
// transmit flush covers — the one shape parameter of the substrate.
// WithBatchSize(1) is the one-frame handoff. Non-positive values are
// ignored. Implies nothing about latency: partial batches are processed
// immediately, never held back to fill.
func WithBatchSize(n int) NetworkOption {
	return func(c *networkConfig) {
		if n > 0 {
			c.batchSize = n
		}
	}
}

// WithShards sets how many forwarding workers each router runs.
// Input ports are assigned to workers round-robin; each worker drains
// only its own ports (the single-consumer half of the ring contract)
// while transmit rings accept any worker through a per-ring producer
// lock taken once per batch. Non-positive values are ignored.
func WithShards(n int) NetworkOption {
	return func(c *networkConfig) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithTracer installs the network's hop-level tracer at construction:
// every packet originated by any host of this network carries a trace
// record from the first Send on. This is the wiring SetTracer performs
// post hoc, promoted to a construction-time option so a network is born
// fully instrumented.
func WithTracer(t trace.Tracer) NetworkOption {
	return func(c *networkConfig) { c.tracer = t }
}

// WithFlightRecorder installs the network's anomaly ring at
// construction: drops, token denials, and link flaps across all routers
// and links are recorded from the first frame on. The recording sites
// sit only on anomaly paths, so the happy forwarding path pays nothing.
func WithFlightRecorder(fr *ledger.FlightRecorder) NetworkOption {
	return func(c *networkConfig) { c.flight = fr }
}

// WithLedgerCollector registers every router this network creates as an
// account source on col: once a router is token-guarded
// (SetTokenAuthority), the collector's sweeps pick up its cache's
// per-account totals under the router's name. This replaces the manual
// per-router AddAccountSource wiring.
func WithLedgerCollector(col *ledger.Collector) NetworkOption {
	return func(c *networkConfig) { c.collector = col }
}

// DefaultBatchSize is the per-dequeue frame budget of a network created
// without WithBatchSize.
const DefaultBatchSize = 64

// NewNetwork creates an empty live network.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{cfg: networkConfig{batchSize: DefaultBatchSize, shards: 1}}
	for _, o := range opts {
		o(&n.cfg)
	}
	if n.cfg.tracer != nil {
		n.SetTracer(n.cfg.tracer)
	}
	if n.cfg.flight != nil {
		n.SetFlightRecorder(n.cfg.flight)
	}
	return n
}

// SetTracer installs (or with nil removes) the network's hop-level
// tracer: every packet subsequently originated by any host of this
// network carries a trace record. Safe to call while traffic flows;
// in-flight packets keep whatever record they started with.
//
// Deprecated: prefer the construction-time WithTracer option; this
// setter remains for callers that enable tracing mid-run.
func (n *Network) SetTracer(t trace.Tracer) { n.tracer.Store(&tracerBox{t}) }

// currentTracer returns the installed tracer, nil when tracing is off.
func (n *Network) currentTracer() trace.Tracer {
	if b, ok := n.tracer.Load().(*tracerBox); ok {
		return b.t
	}
	return nil
}

// SetFlightRecorder installs (or with nil removes) the network's anomaly
// ring: drops, token denials, and link flaps across all routers and
// links of this network are recorded into it. Safe to call while traffic
// flows. The recording sites sit only on anomaly paths, so the happy
// forwarding path pays nothing either way.
//
// Deprecated: prefer the construction-time WithFlightRecorder option;
// this setter remains for callers that swap recorders mid-run.
func (n *Network) SetFlightRecorder(fr *ledger.FlightRecorder) { n.flight.Store(fr) }

// currentFlight returns the installed recorder, nil when disabled.
func (n *Network) currentFlight() *ledger.FlightRecorder { return n.flight.Load() }

// Stop shuts all nodes down and waits for their goroutines.
func (n *Network) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	for _, nd := range n.nodes {
		nd.close()
	}
	n.wg.Wait()
}

// node is the common goroutine plumbing: ports transmit on ring pipes
// (out) and receive through the node's own shard workers, each draining
// the receive pipes assigned to it (rx).
type node struct {
	name   string
	done   chan struct{}
	once   sync.Once
	mu     sync.Mutex
	out    map[uint8]*pipe
	links  map[uint8]*Link // port -> fault handle, for DAG failover link health
	rx     []*shard        // len = worker count
	nextRx int             // round-robin rx-port assignment cursor
}

func newNode(name string, shards int) *node {
	return &node{
		name:  name,
		done:  make(chan struct{}),
		out:   make(map[uint8]*pipe),
		links: make(map[uint8]*Link),
		rx:    newShards(shards),
	}
}

func (nd *node) close() { nd.once.Do(func() { close(nd.done) }) }

// txPipe returns the transmit pipe wired to a port, nil if none.
func (nd *node) txPipe(port uint8) *pipe {
	nd.mu.Lock()
	p := nd.out[port]
	nd.mu.Unlock()
	return p
}

// send transmits one frame on a port, parking under backpressure, and
// transfers buffer ownership to the receiving node; it reports false —
// and the caller keeps ownership — if the port is unknown or either end
// is shutting down. Hosts use it; routers never park (see flushTx).
func (nd *node) send(port uint8, f Frame) bool {
	p := nd.txPipe(port)
	if p == nil {
		return false
	}
	one := [1]Frame{f}
	return p.push(one[:], nd.done) == 1
}

// setLink records the fault handle behind a port, so the dataplane's
// link-health hook can consult it.
func (nd *node) setLink(port uint8, l *Link) {
	nd.mu.Lock()
	nd.links[port] = l
	nd.mu.Unlock()
}

// portUp reports whether a port's link is wired and not failed — the
// dataplane's PortUp hook. The mutex is acceptable here because only
// DAG-segment hops consult link health; plain forwarding never calls
// it.
func (nd *node) portUp(port uint8) bool {
	nd.mu.Lock()
	l := nd.links[port]
	nd.mu.Unlock()
	return l != nil && !l.IsDown()
}

// portDepth reports the occupancy of a port's transmit ring — the
// livenet analogue of an output-queue depth. Called only for traced
// frames; the untraced path never takes this lock.
func (nd *node) portDepth(port uint8) int {
	if p := nd.txPipe(port); p != nil {
		return p.r.Len()
	}
	return 0
}

// Link is a handle on one bidirectional livenet link, used for fault
// injection: a down link silently discards frames in both directions (as
// a cut cable would), and a loss ratio discards each frame independently
// with the given probability. Discards are counted in Dropped so
// conservation checks can attribute every missing packet. All methods
// are safe for concurrent use, including mid-flight flaps.
type Link struct {
	down     atomic.Bool
	lossBits atomic.Uint64 // math.Float64bits of the loss probability
	dropped  atomic.Uint64
	name     string   // "a<->b", for flight-recorder flap events
	netw     *Network // nil on links built outside Connect (tests)
}

// SetDown fails (true) or restores (false) both directions of the link.
// State transitions are recorded in the network's flight recorder.
func (l *Link) SetDown(down bool) {
	if l.down.Swap(down) == down {
		return
	}
	if l.netw == nil {
		return
	}
	if fr := l.netw.currentFlight(); fr != nil {
		reason := "up"
		if down {
			reason = "down"
		}
		fr.Record(ledger.Event{
			At: clock.Wall.NowNanos(), Node: l.name,
			Kind: ledger.KindLinkFlap, Reason: reason,
		})
	}
}

// IsDown reports whether the link is failed.
func (l *Link) IsDown() bool { return l.down.Load() }

// SetLossRatio makes each frame be discarded with probability p (0
// disables).
func (l *Link) SetLossRatio(p float64) { l.lossBits.Store(math.Float64bits(p)) }

// Dropped returns the number of frames discarded by fault injection.
func (l *Link) Dropped() uint64 { return l.dropped.Load() }

// drops draws the fault lottery for one frame delivery.
func (l *Link) drops() bool {
	if l == nil {
		return false
	}
	if l.down.Load() {
		l.dropped.Add(1)
		return true
	}
	if p := math.Float64frombits(l.lossBits.Load()); p > 0 && rand.Float64() < p {
		l.dropped.Add(1)
		return true
	}
	return false
}

// DefaultLinkDepth is the per-direction queue depth, in frames, of a
// link created without WithDepth: room for one full default batch in
// flight, so a burst flushes without the producer parking between
// sub-pushes.
const DefaultLinkDepth = DefaultBatchSize

// linkConfig collects Connect options.
type linkConfig struct {
	depth int
	loss  float64
	down  bool
}

// LinkOption configures one Connect call.
type LinkOption func(*linkConfig)

// WithDepth sets the link's per-direction queue depth in frames.
// Non-positive values are ignored.
func WithDepth(n int) LinkOption {
	return func(c *linkConfig) {
		if n > 0 {
			c.depth = n
		}
	}
}

// WithLossRatio creates the link already discarding each frame
// independently with probability p, as a later SetLossRatio(p) would.
func WithLossRatio(p float64) LinkOption {
	return func(c *linkConfig) { c.loss = p }
}

// WithDown creates the link in the failed state; restore it with
// SetDown(false).
func WithDown() LinkOption {
	return func(c *linkConfig) { c.down = true }
}

// Connect joins two nodes with a bidirectional link — one ring pipe per
// direction — and returns the link's fault-injection handle. Options
// configure queue depth (DefaultLinkDepth otherwise) and the initial
// fault state.
func (n *Network) Connect(a Attachable, portA uint8, b Attachable, portB uint8, opts ...LinkOption) *Link {
	cfg := linkConfig{depth: DefaultLinkDepth}
	for _, o := range opts {
		o(&cfg)
	}
	na, nb := a.base(), b.base()
	l := &Link{name: na.name + "<->" + nb.name, netw: n}
	l.SetDown(cfg.down)
	l.SetLossRatio(cfg.loss)
	na.setLink(portA, l)
	nb.setLink(portB, l)
	// Receive ends are registered before transmit ends, so no frame can
	// arrive at an unregistered consumer.
	ab := newPipe(cfg.depth, portB, l, nb) // a -> b, arrives on b's portB
	ba := newPipe(cfg.depth, portA, l, na) // b -> a, arrives on a's portA
	nb.addRx(ab)
	na.addRx(ba)
	na.addTx(portA, ab)
	nb.addTx(portB, ba)
	return l
}

// Attachable is implemented by livenet hosts and routers.
type Attachable interface{ base() *node }

// counters is the router's concurrently-updated counter plane; Stats
// snapshots it into the shared stats.Counters surface.
type counters struct {
	forwarded       atomic.Uint64
	local           atomic.Uint64
	tokenAuthorized atomic.Uint64
	drops           [stats.NumDropReasons]atomic.Uint64
}

// Router is a goroutine Sirpent switch. Its per-hop work — decode,
// token check, three-way action, trailer mirror — is the shared
// dataplane pipeline; this type contributes the shard workers, the ring
// I/O, and the pooled-buffer ownership discipline (batch.go). The token
// state is dataplane.TokenState behind an atomic pointer: immutable once
// published, so a worker reads a consistent cache/require pair with one
// load, keeping the tokenless fast path allocation- and lock-free.
type Router struct {
	*node
	counters counters
	local    func([]byte)
	netw     *Network
	plane    dataplane.Pipeline
	tok      atomic.Pointer[dataplane.TokenState]
}

// SetLocalHandler receives encoded packets whose current segment is
// port 0 (the router's own stack). It runs on a router worker and
// takes ownership of the buffer (which leaves the pool).
func (r *Router) SetLocalHandler(fn func(encoded []byte)) { r.local = fn }

// SetTokenAuthority installs the administrative domain key this router
// verifies tokens against, enabling token checking (§2.2). Any port
// requirements set earlier are preserved.
func (r *Router) SetTokenAuthority(a *token.Authority) {
	for {
		old := r.tok.Load()
		if r.tok.CompareAndSwap(old, old.WithAuthority(a)) {
			return
		}
	}
}

// RequireToken makes packets without a valid token for the given output
// port be denied rather than forwarded. It takes effect once a token
// authority is installed.
func (r *Router) RequireToken(port uint8) {
	for {
		old := r.tok.Load()
		if r.tok.CompareAndSwap(old, old.WithRequired(port)) {
			return
		}
	}
}

// TokenCache exposes the router's token cache for accounting sweeps;
// nil until SetTokenAuthority is called.
func (r *Router) TokenCache() *token.Cache { return r.tok.Load().Cache() }

// currentFlight resolves the network's anomaly recorder for the
// dataplane's Flight hook; nil disables recording.
func (r *Router) currentFlight() *ledger.FlightRecorder {
	if r.netw == nil {
		return nil
	}
	return r.netw.currentFlight()
}

// newRouter builds a router and its dataplane pipeline without starting
// its workers (benchmarks drive forwardBatch directly).
func (n *Network) newRouter(name string) *Router {
	r := &Router{node: newNode(name, n.cfg.shards), netw: n}
	r.plane = dataplane.Pipeline{
		Node:  name,
		Clock: clock.Wall,
		// Livenet realizes token.Block: uncached tokens verify
		// synchronously on the forwarding worker (see forwardBatch).
		Mode: token.Block,
		Hooks: dataplane.Hooks{
			CountDropN:            func(reason stats.DropReason, k uint64) { r.counters.drops[reason].Add(k) },
			CountLocalN:           func(k uint64) { r.counters.local.Add(k) },
			CountTokenAuthorizedN: func(k uint64) { r.counters.tokenAuthorized.Add(k) },
			Flight:                r.currentFlight,
			QueueDepth:            r.portDepth,
			PortUp:                r.node.portUp,
		},
	}
	return r
}

// NewRouter creates and starts a router: one forwarding worker per
// shard.
func (n *Network) NewRouter(name string) *Router {
	r := n.newRouter(name)
	n.nodes = append(n.nodes, r.node)
	if col := n.cfg.collector; col != nil {
		// The cache appears only once the router is token-guarded; the
		// closure resolves it per sweep so registration order and
		// guarding order are independent.
		col.AddAccountSource(name, func() map[uint32]token.Usage {
			if c := r.TokenCache(); c != nil {
				return c.AccountTotals()
			}
			return nil
		})
	}
	for _, sh := range r.node.rx {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			r.runShard(sh)
		}()
	}
	return r
}

func (r *Router) base() *node { return r.node }

// Stats returns a snapshot of the router's counters on the shared
// stats.Counters surface, diffable against the simulation substrate's.
func (r *Router) Stats() stats.Counters {
	var c stats.Counters
	c.Forwarded = r.counters.forwarded.Load()
	c.Local = r.counters.local.Load()
	c.TokenAuthorized = r.counters.tokenAuthorized.Load()
	for i := range r.counters.drops {
		c.Drops[i] = r.counters.drops[i].Load()
	}
	return c
}

// frameHeadroom estimates the spare capacity a frame needs so that every
// later hop's trailer append stays in place. Each hop mirrors the
// stripped segment's token and echoes an arrival header — together
// bounded by the remaining forward-header bytes — plus fixed descriptor
// and length-escape overhead per hop.
func frameHeadroom(hops, headerBytes int) int {
	return headerBytes + (hops+1)*(ethernet.HeaderLen+8)
}

// Delivery is a packet received by a live host. Data aliases the frame's
// pooled buffer and is valid only until the handler returns; handlers
// that retain the payload must copy it. ReturnRoute is deep-copied and
// safe to keep.
type Delivery struct {
	Data        []byte
	ReturnRoute []viper.Segment
	Endpoint    uint8
}

// Host is a goroutine Sirpent endpoint.
type Host struct {
	*node
	netw     *Network
	mu       sync.Mutex
	handlers map[uint8]func(Delivery)
	raw      atomic.Pointer[func(pkt []byte, ctx trace.Context)] // pre-decode tap, see SetRawHandler/SetRawTap
}

// NewHost creates and starts a host goroutine. Hosts are single-sharded:
// deliveries to one host stay ordered.
func (n *Network) NewHost(name string) *Host {
	h := &Host{node: newNode(name, 1), netw: n, handlers: make(map[uint8]func(Delivery))}
	n.nodes = append(n.nodes, h.node)
	sh := h.node.rx[0]
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		h.runShard(sh)
	}()
	return h
}

func (h *Host) base() *node { return h.node }

// Handle registers a delivery handler for a host endpoint. Handlers run
// on the host's goroutine.
func (h *Host) Handle(endpoint uint8, fn func(Delivery)) {
	h.mu.Lock()
	h.handlers[endpoint] = fn
	h.mu.Unlock()
}

// Send originates a packet along a source route (sender directive
// first, as in the simulator's Host). The wire image is assembled
// directly into a pooled buffer by the same machinery NewSender uses
// for its prepared template — no route clone, no intermediate Packet —
// with enough headroom for every hop's trailer growth, so injection
// and the frame's whole transit are allocation-free in steady state
// (pinned by TestSendAllocs).
func (h *Host) Send(route []viper.Segment, data []byte) error {
	return h.SendFrom(viper.PortLocal, route, data)
}

// SendFrom is Send with an explicit origin endpoint: the packet's
// origin trailer names this endpoint instead of PortLocal, so replies
// along the accumulated return route deliver to the Handle(endpoint)
// handler rather than the default one. Services multiplexed beside
// other traffic on one host (the gateway's VMTP endpoints) use this to
// keep their return traffic off endpoint 0.
func (h *Host) SendFrom(endpoint uint8, route []viper.Segment, data []byte) error {
	if len(route) == 0 {
		return fmt.Errorf("livenet: empty route")
	}
	own := route[0]
	rest := route[1:]
	headerLen := routeWireLen(rest)
	buf := pool.Get(wireImageLen(rest, len(data), own.Priority) + frameHeadroom(len(rest), headerLen))
	b, err := appendWireImage(buf, rest, data, endpoint, own.Priority)
	if err != nil {
		pool.Put(buf)
		return err
	}
	f := Frame{Pkt: b, buf: b[:0]}
	if len(own.PortInfo) > 0 {
		// Copied, not aliased: the first-hop router swaps the header in
		// place, and the caller's route must not be scribbled on.
		f.Hdr = append([]byte(nil), own.PortInfo...)
	}
	return h.inject(own.Port, f, trace.Start(h.netw.currentTracer(), data))
}

// inject transmits a freshly built frame on one of the host's
// interfaces, parking under backpressure. A traced frame gets its origin
// hop first — appended before the push, since ownership of the record
// transfers with the frame (see Frame.Trace). On failure the record
// closes with a transmit-error drop and the buffer is recycled.
func (h *Host) inject(port uint8, f Frame, pt *trace.PacketTrace) error {
	if pt != nil {
		pt.Add(trace.HopEvent{
			Node: h.name, OutPort: port, Action: trace.ActionForward,
			At: clock.Wall.NowNanos(),
		})
		f.Trace = pt
	}
	if h.send(port, f) {
		return nil
	}
	if f.Trace != nil {
		f.Trace.Add(trace.HopEvent{
			Node: h.name, Action: trace.ActionDrop, Reason: stats.DropTxError,
			At: clock.Wall.NowNanos(),
		})
		f.Trace.Done()
	}
	f.release()
	return fmt.Errorf("livenet: no interface %d on %s", port, h.name)
}

// SendRaw transmits an already-encoded VIPER packet on one of the
// host's interfaces, exactly as received: no route interpretation, no
// segment strip, no origin trailer. It is the injection half of an
// encapsulation gateway (internal/udpnet, §2.3's "one logical hop"
// story): bytes that crossed a foreign transport re-enter the Sirpent
// network here, and the adjacent node sees an ordinary arrival on its
// end of the link. The bytes are copied into a pooled buffer with
// forwarding headroom; the caller keeps pkt.
func (h *Host) SendRaw(ifPort uint8, pkt []byte) error {
	return h.SendRawTraced(ifPort, pkt, trace.Context{})
}

// SendRawTraced is SendRaw for packets that arrived with a
// cross-process trace context: when ctx is valid and the network's
// tracer can resume foreign traces (trace.Resumer), the injected frame
// carries a resumed record, so the packet's transit of *this* process
// is recorded under the same cluster-wide trace ID it left the
// previous process with. With a zero ctx or a non-resuming tracer it
// behaves exactly like SendRaw.
func (h *Host) SendRawTraced(ifPort uint8, pkt []byte, ctx trace.Context) error {
	buf := pool.Get(len(pkt) + frameHeadroom(4, len(pkt)))
	buf = append(buf, pkt...)
	var pt *trace.PacketTrace
	if ctx.Valid() {
		pt = trace.Resume(h.netw.currentTracer(), ctx)
	}
	return h.inject(ifPort, Frame{Pkt: buf, buf: buf[:0]}, pt)
}

// closeReceive ends a traced frame's record at this host; action is
// ActionLocal on delivery, ActionDrop with a reason otherwise.
func (h *Host) closeReceive(inf inFrame, action trace.Action, reason stats.DropReason) {
	pt := inf.frame.Trace
	if pt == nil {
		return
	}
	now := clock.Wall.NowNanos()
	pt.Add(trace.HopEvent{
		Node: h.name, InPort: inf.port, Action: action, Reason: reason,
		At: now, LatencyNs: now - inf.arrived,
	})
	pt.Done()
}

// recordDrop makes a host-side discard visible in the network's flight
// recorder. Hosts have no counter plane, so without this a packet
// reaching a host that cannot decode it — or one with no handler on
// the addressed endpoint — would vanish without evidence; this exact
// silence once hid a cluster startup race (a request arriving before
// the receiving daemon installed its handler) until tunnel counters
// were cross-checked by hand.
func (h *Host) recordDrop(port uint8, reason stats.DropReason) {
	if fr := h.netw.currentFlight(); fr != nil {
		fr.Record(ledger.Event{
			At: clock.Wall.NowNanos(), Node: h.name, Port: port,
			Kind: dataplane.DropKind(reason), Reason: reason.String(),
		})
	}
}

func (h *Host) receive(inf inFrame) {
	if fn := h.rawTap(); fn != nil {
		// A traced frame hands its cross-process context to the tap
		// before the record closes, so an encapsulation gateway can
		// carry the trace onto its foreign transport. Untraced frames
		// pass the zero Context — a stack value, no allocation.
		var ctx trace.Context
		if pt := inf.frame.Trace; pt != nil {
			ctx = pt.Ctx
		}
		h.closeReceive(inf, trace.ActionLocal, 0)
		fn(inf.frame.Pkt, ctx)
		inf.frame.release()
		return
	}
	pkt, err := viper.Decode(inf.frame.Pkt)
	if err != nil || len(pkt.Route) == 0 {
		h.closeReceive(inf, trace.ActionDrop, stats.DropNotSirpent)
		h.recordDrop(inf.port, stats.DropNotSirpent)
		inf.frame.release()
		return
	}
	seg := pkt.Route[0]
	ret := viper.Segment{Port: inf.port, Priority: seg.Priority}
	if inf.frame.Hdr != nil && ethernet.SwapInPlace(inf.frame.Hdr) == nil {
		// The frame — header included — is ours until the handler
		// returns, so the swap happens in place and the return segment
		// aliases it; ReturnRoute deep-copies every segment it emits.
		ret.PortInfo = inf.frame.Hdr
	}
	pkt.ConsumeHead(ret)
	h.mu.Lock()
	fn := h.handlers[seg.Port]
	h.mu.Unlock()
	if fn != nil {
		h.closeReceive(inf, trace.ActionLocal, 0)
		fn(Delivery{Data: pkt.Data, ReturnRoute: pkt.ReturnRoute(), Endpoint: seg.Port})
	} else {
		h.closeReceive(inf, trace.ActionDrop, stats.DropBadPort)
		h.recordDrop(inf.port, stats.DropBadPort)
	}
	inf.frame.release()
}
