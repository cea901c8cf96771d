// Package udpnet bridges livenet ports onto real UDP sockets, so
// separate OS processes — each running its own livenet substrate —
// form one Sirpent internetwork. It is the process-boundary analogue
// of a livenet Link: a Tunnel carries the encoded VIPER bytes of one
// logical link inside UDP datagrams (the Sirpent-over-IP story of
// §2.3: the entire foreign transport is one source-route hop), and
// exposes the same fault handles a Link does — down, loss ratio,
// bounded depth — so conformance workloads can run over sockets with
// the exact failure vocabulary they use in-process.
//
// Topology-wise a Tunnel is a gateway Host wired to the bridged
// router port: frames the router transmits toward the gateway are
// tapped pre-decode (Host.SetRawHandler), framed, and written to the
// peer's socket; datagrams arriving from the peer are unframed and
// re-injected with Host.SendRaw. The router on each side sees an
// ordinary arrival on an ordinary port, so §6.2 trailer surgery,
// return routes, token charges, and ledger byte counts are identical
// to a direct in-process link — the property the cross-process
// conformance parity run (internal/daemon) pins.
//
// Encapsulation framing (all integers big-endian):
//
//	0      4       5      6        8
//	+------+-------+------+--------+----------------------+
//	| SIRP | vers  | type | linkID | encoded VIPER packet |
//	+------+-------+------+--------+----------------------+
//
// linkID names the logical link, not the peer: two processes may run
// parallel tunnels between the same socket pair, demuxed by linkID
// alone. Datagrams failing the header check are counted and dropped,
// never delivered — and, when the bridge has a flight recorder, each
// such anomaly (decode failure, unknown linkID, send error) is
// recorded with a stable ledger.Kind instead of vanishing into a bare
// counter.
//
// Frames whose livenet record carries a cross-process trace context
// (trace.Context, sampled by the peer's ClusterTracer) are framed as
// TypeTraced instead of TypeData: the header is followed by the
// 17-byte context plus the sender's wall-clock send stamp, then the
// VIPER bytes. The receiving tunnel records a "wire:<linkID>" span
// (send stamp → arrival, covering both queue dwell and socket time)
// and re-injects with the context so the trace continues in the next
// process. Untraced traffic is framed exactly as before — the traced
// path costs nothing when tracing is off.
//
// Socket I/O is batched on Linux (amd64, arm64): each tunnel's writer
// drains its egress queue into one sendmmsg call, and the bridge's
// reader fills a batch of datagrams from one recvmmsg call, both through
// (*net.UDPConn).SyscallConn and the standard library alone. Elsewhere
// the same loops fall back to one WriteToUDP or ReadFromUDP per
// datagram. Either way counting and fault semantics stay per datagram:
// the loss lottery, Encapsulated, SendErrors, peer-loss detection, and
// traced wire spans see every datagram individually.
package udpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Framing constants.
const (
	Version = 1

	// TypeData carries one encoded VIPER packet.
	TypeData = 0x01

	// TypeTraced carries one encoded VIPER packet prefixed by its
	// trace context and the sender's send stamp (tracedPrefixLen
	// bytes).
	TypeTraced = 0x02

	// HeaderLen is the encapsulation header size in bytes.
	HeaderLen = 8

	// tracedPrefixLen is the trace prefix of a TypeTraced payload:
	// the wire-form trace.Context followed by the sender's Unix-ns
	// send stamp.
	tracedPrefixLen = trace.ContextWireLen + 8

	// MaxDatagram bounds a received datagram; UDP itself cannot carry
	// more.
	MaxDatagram = 64 * 1024
)

var magic = [4]byte{'S', 'I', 'R', 'P'}

// DefaultTunnelDepth is the queue depth, in frames, of a Tunnel created
// without WithDepth — both its egress queue and the in-process link to
// the bridged router port. The socket-side analogue of
// livenet.DefaultLinkDepth.
const DefaultTunnelDepth = 64

// sendBatchMax bounds how many queued datagrams one writer pass drains
// into a single socket call.
const sendBatchMax = 64

// sendBatch writes a prefix of dgs to one peer and returns its length.
// When that is short of len(dgs) and err is non-nil, err is dgs[n]'s
// failure; a short count without an error means the rest is still to
// be sent.
type sendBatch func(dgs [][]byte, to *net.UDPAddr) (n int, err error)

// recvBatch blocks until at least one datagram arrives, then fills a
// prefix of the receive slots it was built over, recording each
// datagram's length in lens, and returns how many it filled.
type recvBatch func(lens []int) (n int, err error)

// PeerLossThreshold is the number of consecutive socket write failures
// after which the tunnel declares its peer lost and marks the inner
// in-process link down — so the bridged router's port reads as dead
// and DAG-routed traffic fails over instead of draining into a black
// hole. One successful write clears the state.
const PeerLossThreshold = 3

// Stats is a point-in-time snapshot of one tunnel's counters.
type Stats struct {
	Encapsulated uint64 // frames framed and handed to the socket
	Decapsulated uint64 // datagrams unframed and injected into livenet
	DecodeErrors uint64 // datagrams for this link with a bad type or empty payload
	SendErrors   uint64 // socket write failures and injections into a stopped network
	Dropped      uint64 // fault-injection and queue-overflow discards
	TracedSent   uint64 // of Encapsulated: frames carrying a trace context
	TracedRecv   uint64 // of Decapsulated: frames whose context resumed a trace (one "wire" span each)
}

// Bridge owns one UDP socket and demuxes inbound datagrams to the
// tunnels attached to it. One Bridge per process is the intended
// shape — every tunnel the process terminates shares the socket, and
// peers address the process by its single UDP address.
type Bridge struct {
	conn   *net.UDPConn
	node   string                 // name recorded on flight events, default "udpnet"
	flight *ledger.FlightRecorder // anomaly sink, nil when unset (Record is nil-safe)
	spans  *trace.Spans           // wire-span sink, nil when unset (Record is nil-safe)

	mu      sync.RWMutex
	tunnels map[uint16]*Tunnel

	decodeErrors atomic.Uint64 // header-level garbage: bad magic/version/length, unknown link

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// BridgeOption configures one Listen call.
type BridgeOption func(*Bridge)

// WithFlightRecorder routes tunnel-level anomalies — frame decode
// failures, unknown linkIDs, socket send errors — into fr as events
// with stable kinds, instead of leaving them as bare counters.
func WithFlightRecorder(fr *ledger.FlightRecorder) BridgeOption {
	return func(b *Bridge) { b.flight = fr }
}

// WithTelemetry names this bridge's process (for flight events) and
// routes per-crossing "wire:<linkID>" spans of traced frames into sp.
func WithTelemetry(node string, sp *trace.Spans) BridgeOption {
	return func(b *Bridge) {
		if node != "" {
			b.node = node
		}
		b.spans = sp
	}
}

// Listen opens the bridge socket. addr is a UDP listen address such
// as "127.0.0.1:0"; the chosen port is available from Addr.
func Listen(addr string, opts ...BridgeOption) (*Bridge, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %q: %w", addr, err)
	}
	b := &Bridge{
		conn:    conn,
		node:    "udpnet",
		tunnels: make(map[uint16]*Tunnel),
		closed:  make(chan struct{}),
	}
	for _, o := range opts {
		o(b)
	}
	b.wg.Add(1)
	go b.readLoop()
	return b, nil
}

// Addr returns the socket's bound address.
func (b *Bridge) Addr() *net.UDPAddr { return b.conn.LocalAddr().(*net.UDPAddr) }

// DecodeErrors counts datagrams discarded before demux: short, wrong
// magic, wrong version, or naming a link no tunnel terminates.
func (b *Bridge) DecodeErrors() uint64 { return b.decodeErrors.Load() }

// Close tears the bridge down: the socket closes, the read loop and
// every tunnel's writer exit, and attached gateways stop forwarding.
// Safe to call more than once.
func (b *Bridge) Close() error {
	b.closeOnce.Do(func() {
		close(b.closed)
		b.conn.Close()
	})
	b.wg.Wait()
	return nil
}

// readLoop is the demux pump: one goroutine per bridge reads batches of
// datagrams (recvSlots per call) and hands each payload to the owning
// tunnel. The slots are reused across reads — Tunnel.ingress must copy
// before returning, which Host.SendRaw's pooled copy already does.
// Slots are MaxDatagram bytes, so no datagram is ever truncated.
func (b *Bridge) readLoop() {
	defer b.wg.Done()
	bufs := make([][]byte, recvSlots)
	for i := range bufs {
		bufs[i] = make([]byte, MaxDatagram)
	}
	lens := make([]int, recvSlots)
	recv := newRecvBatch(b.conn, bufs)
	for {
		n, err := recv(lens)
		if err != nil {
			select {
			case <-b.closed:
				return
			default:
			}
			// Transient socket errors (e.g. ICMP port unreachable
			// surfacing on connected reads) must not kill the pump.
			continue
		}
		for i := 0; i < n; i++ {
			b.demux(bufs[i][:lens[i]])
		}
	}
}

// demux checks one datagram's frame header and hands its payload to the
// tunnel terminating its linkID. A datagram that fails the check is
// counted and recorded, and the rest of its batch carries on.
func (b *Bridge) demux(dg []byte) {
	if len(dg) < HeaderLen || [4]byte(dg[0:4]) != magic || dg[4] != Version {
		b.decodeErrors.Add(1)
		b.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: b.node,
			Kind: ledger.KindDecodeError, Reason: fmt.Sprintf("bad frame header (%d bytes)", len(dg)),
		})
		return
	}
	linkID := binary.BigEndian.Uint16(dg[6:8])
	b.mu.RLock()
	t := b.tunnels[linkID]
	b.mu.RUnlock()
	if t == nil {
		b.decodeErrors.Add(1)
		b.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: b.node,
			Kind: ledger.KindUnknownLink, Reason: fmt.Sprintf("link %d not attached", linkID),
		})
		return
	}
	t.ingress(dg[5], dg[HeaderLen:])
}

// tunnelConfig collects Attach options.
type tunnelConfig struct {
	depth    int
	lossSeed int64
	remote   *net.UDPAddr
}

// TunnelOption configures one Attach call.
type TunnelOption func(*tunnelConfig)

// WithDepth sets the tunnel's queue depth in frames: its egress queue
// and the in-process link to the bridged router port. Non-positive
// values are ignored.
func WithDepth(n int) TunnelOption {
	return func(c *tunnelConfig) {
		if n > 0 {
			c.depth = n
		}
	}
}

// WithLossSeed seeds the tunnel's fault lottery, making injected loss
// reproducible run to run.
func WithLossSeed(seed int64) TunnelOption {
	return func(c *tunnelConfig) { c.lossSeed = seed }
}

// WithRemote sets the peer address at attach time; otherwise set it
// later with SetRemote once directory registration has resolved it.
func WithRemote(addr *net.UDPAddr) TunnelOption {
	return func(c *tunnelConfig) { c.remote = addr }
}

// Tunnel carries one logical link over the bridge's socket. Its fault
// handles mirror livenet.Link: SetDown cuts both directions, a loss
// ratio discards each frame independently (seeded, so reproducible),
// and Dropped attributes every discard for conservation checks.
type Tunnel struct {
	bridge *Bridge
	linkID uint16
	gw     *livenet.Host
	gwPort uint8
	inner  *livenet.Link // in-process link to the bridged router port

	wireStage string // span stage name, "wire:<linkID>"

	remote atomic.Pointer[net.UDPAddr]

	down       atomic.Bool   // explicit SetDown state
	peerLost   atomic.Bool   // set by consecutive-write-failure detection
	consecErrs atomic.Uint32 // socket write failures since the last success
	lossBits   atomic.Uint64 // math.Float64bits of the loss probability
	rngMu      sync.Mutex
	rng        *rand.Rand

	out  chan []byte // framed datagrams awaiting the writer
	send sendBatch   // the writer's socket call
	live [][]byte    // the writer's scratch: one batch's datagrams still to send

	encapsulated atomic.Uint64
	decapsulated atomic.Uint64
	decodeErrors atomic.Uint64
	sendErrors   atomic.Uint64
	dropped      atomic.Uint64
	tracedSent   atomic.Uint64
	tracedRecv   atomic.Uint64
}

// Attach bridges port `port` of node `at` (a livenet Router or Host)
// onto the UDP socket as logical link linkID. It creates the gateway
// host and the in-process link to it; the returned Tunnel is live
// immediately, though frames sent before a remote address is known
// count as send errors. linkID must be unique on this bridge.
func (b *Bridge) Attach(netw *livenet.Network, at livenet.Attachable, port uint8, linkID uint16, opts ...TunnelOption) (*Tunnel, error) {
	cfg := tunnelConfig{depth: DefaultTunnelDepth, lossSeed: int64(linkID)}
	for _, o := range opts {
		o(&cfg)
	}
	t := &Tunnel{
		bridge:    b,
		linkID:    linkID,
		gwPort:    1,
		wireStage: fmt.Sprintf("wire:%d", linkID),
		rng:       rand.New(rand.NewSource(cfg.lossSeed)),
		out:       make(chan []byte, cfg.depth),
		send:      newSendBatch(b.conn),
	}
	if cfg.remote != nil {
		t.remote.Store(cfg.remote)
	}
	b.mu.Lock()
	_, dup := b.tunnels[linkID]
	b.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("udpnet: link %d already attached", linkID)
	}

	// Wire the gateway completely before publishing the tunnel: the
	// moment it is in b.tunnels, the read loop may hand it a datagram.
	t.gw = netw.NewHost(fmt.Sprintf("udpgw-%d", linkID))
	t.inner = netw.Connect(at, port, t.gw, t.gwPort, livenet.WithDepth(cfg.depth))
	t.gw.SetRawTap(t.egress)

	b.mu.Lock()
	if _, dup := b.tunnels[linkID]; dup {
		// Lost a concurrent attach race for the same ID (caller bug; the
		// gateway host above is orphaned but harmless).
		b.mu.Unlock()
		return nil, fmt.Errorf("udpnet: link %d already attached", linkID)
	}
	b.tunnels[linkID] = t
	b.mu.Unlock()

	b.wg.Add(1)
	go t.writeLoop()
	return t, nil
}

// SetRemote points the tunnel at its peer's socket address.
func (t *Tunnel) SetRemote(addr *net.UDPAddr) { t.remote.Store(addr) }

// Remote returns the current peer address, nil before discovery.
func (t *Tunnel) Remote() *net.UDPAddr { return t.remote.Load() }

// LinkID returns the tunnel's logical link identifier.
func (t *Tunnel) LinkID() uint16 { return t.linkID }

// Gateway returns the livenet host terminating the tunnel, useful for
// inspection in tests.
func (t *Tunnel) Gateway() *livenet.Host { return t.gw }

// SetDown fails (true) or restores (false) both directions. The state
// propagates to the inner in-process link, so the bridged router's
// port-up view — and with it DAG failover — tracks the tunnel.
// Restoring does not override an active peer-loss declaration.
func (t *Tunnel) SetDown(down bool) {
	t.down.Store(down)
	t.syncInner()
}

// IsDown reports whether the tunnel is failed, either explicitly or by
// peer-loss detection.
func (t *Tunnel) IsDown() bool { return t.down.Load() || t.peerLost.Load() }

// PeerLost reports whether consecutive socket write failures have
// declared the peer unreachable.
func (t *Tunnel) PeerLost() bool { return t.peerLost.Load() }

// InnerLink returns the in-process link between the bridged port and
// the gateway host — the handle whose down state the router's failover
// logic consults.
func (t *Tunnel) InnerLink() *livenet.Link { return t.inner }

// syncInner mirrors the tunnel's effective health onto the inner link.
func (t *Tunnel) syncInner() {
	if t.inner != nil {
		t.inner.SetDown(t.down.Load() || t.peerLost.Load())
	}
}

// noteSendError advances the peer-loss detector after one socket write
// failure; at PeerLossThreshold consecutive failures the peer is
// declared lost, the inner link marked down, and the transition
// flight-recorded.
func (t *Tunnel) noteSendError() {
	if t.consecErrs.Add(1) < PeerLossThreshold {
		return
	}
	if t.peerLost.CompareAndSwap(false, true) {
		t.syncInner()
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindLinkFlap, Reason: fmt.Sprintf("link %d: peer lost after %d consecutive send errors", t.linkID, PeerLossThreshold),
		})
	}
}

// noteSendOK resets the detector after a successful write; a peer
// previously declared lost is restored (unless explicitly down).
func (t *Tunnel) noteSendOK() {
	t.consecErrs.Store(0)
	if t.peerLost.CompareAndSwap(true, false) {
		t.syncInner()
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindLinkFlap, Reason: fmt.Sprintf("link %d: peer recovered", t.linkID),
		})
	}
}

// SetLossRatio makes each egress frame be discarded with probability
// p (0 disables). The lottery is drawn from the tunnel's seeded
// source, so a given seed and traffic sequence loses the same frames
// every run.
func (t *Tunnel) SetLossRatio(p float64) { t.lossBits.Store(math.Float64bits(p)) }

// Dropped returns the number of frames discarded by fault injection
// and egress queue overflow. Because a down tunnel marks its inner
// in-process link down — so frames die at the link pump before ever
// reaching the tunnel — the inner link's discards are included, keeping
// the attribution complete for conservation checks.
func (t *Tunnel) Dropped() uint64 {
	n := t.dropped.Load()
	if t.inner != nil {
		n += t.inner.Dropped()
	}
	return n
}

// Stats returns a snapshot of the tunnel's counters. Dropped includes
// the inner link's discards, as Dropped() does.
func (t *Tunnel) Stats() Stats {
	return Stats{
		Encapsulated: t.encapsulated.Load(),
		Decapsulated: t.decapsulated.Load(),
		DecodeErrors: t.decodeErrors.Load(),
		SendErrors:   t.sendErrors.Load(),
		Dropped:      t.Dropped(),
		TracedSent:   t.tracedSent.Load(),
		TracedRecv:   t.tracedRecv.Load(),
	}
}

// drops draws the fault lottery for one frame.
func (t *Tunnel) drops() bool {
	if t.down.Load() {
		t.dropped.Add(1)
		return true
	}
	if p := math.Float64frombits(t.lossBits.Load()); p > 0 {
		t.rngMu.Lock()
		lost := t.rng.Float64() < p
		t.rngMu.Unlock()
		if lost {
			t.dropped.Add(1)
			return true
		}
	}
	return false
}

// egress is the gateway host's raw tap: every frame the router
// transmits onto the bridged port lands here as encoded VIPER bytes
// valid only for the duration of the call. The frame is framed into a
// pooled datagram buffer and queued for the writer; a full queue drops,
// as an overrun link queue would.
//
// A frame whose in-process record carried a trace context crosses as
// TypeTraced with one less hop budget and the send stamp taken here —
// so the receiver's "wire:<linkID>" span covers egress-queue dwell as
// well as socket time, which is exactly the dwell a congested tunnel
// needs attributed. The local record has already been closed by the
// host's tap delivery; losing the datagram afterwards loses only the
// wire copy of the context, never an open record.
func (t *Tunnel) egress(pkt []byte, ctx trace.Context) {
	var dg []byte
	if ctx.CanHop() {
		n := HeaderLen + tracedPrefixLen + len(pkt)
		dg = pool.Get(n)[:n]
		dg[5] = TypeTraced
		ctx.Next().Encode(dg[HeaderLen:])
		binary.BigEndian.PutUint64(dg[HeaderLen+trace.ContextWireLen:], uint64(time.Now().UnixNano()))
		copy(dg[HeaderLen+tracedPrefixLen:], pkt)
	} else {
		n := HeaderLen + len(pkt)
		dg = pool.Get(n)[:n]
		dg[5] = TypeData
		copy(dg[HeaderLen:], pkt)
	}
	copy(dg[0:4], magic[:])
	dg[4] = Version
	binary.BigEndian.PutUint16(dg[6:8], t.linkID)
	select {
	case t.out <- dg:
	default:
		t.dropped.Add(1)
		pool.Put(dg)
	}
}

// writeLoop drains the egress queue onto the socket: it waits for one
// datagram, takes whatever else is already queued (up to sendBatchMax),
// and writes the batch with one socket call where the platform allows.
func (t *Tunnel) writeLoop() {
	defer t.bridge.wg.Done()
	batch := make([][]byte, 0, sendBatchMax)
	for {
		select {
		case dg := <-t.out:
			batch = append(batch, dg)
		case <-t.bridge.closed:
			return
		}
	fill:
		for len(batch) < cap(batch) {
			select {
			case dg := <-t.out:
				batch = append(batch, dg)
			default:
				break fill
			}
		}
		t.writeBatch(batch)
		for i, dg := range batch {
			pool.Put(dg)
			batch[i] = nil
		}
		batch = batch[:0]
	}
}

// writeBatch puts one drained batch on the wire, accounting every
// datagram as the one-call-per-datagram path would. Fault lottery and
// remote resolution happen here, not in egress, so a flapping tunnel
// drops queued frames too — matching a cut cable, which loses what is in
// flight. A socket failure is charged to the one datagram it names; the
// datagrams after it are still attempted, so a dead socket costs one
// SendError per unsent datagram and trips peer loss after
// PeerLossThreshold of them. The datagrams themselves stay in batch for
// the caller to recycle.
func (t *Tunnel) writeBatch(batch [][]byte) {
	remote := t.remote.Load()
	live := t.live[:0]
	for _, dg := range batch {
		if t.drops() {
			continue
		}
		if remote == nil {
			t.sendErrors.Add(1)
			t.bridge.flight.Record(ledger.Event{
				At: time.Now().UnixNano(), Node: t.bridge.node,
				Kind: ledger.KindSendError, Reason: fmt.Sprintf("link %d: no remote address", t.linkID),
			})
			continue
		}
		live = append(live, dg)
	}
	t.live = live
	for len(live) > 0 {
		n, err := t.send(live, remote)
		if n > 0 {
			t.noteSendOK()
			t.encapsulated.Add(uint64(n))
			for _, dg := range live[:n] {
				if dg[5] == TypeTraced {
					t.tracedSent.Add(1)
				}
			}
			live = live[n:]
		}
		if err == nil && n == 0 {
			err = io.ErrShortWrite
		}
		if err != nil && len(live) > 0 {
			t.sendErrors.Add(1)
			t.noteSendError()
			t.bridge.flight.Record(ledger.Event{
				At: time.Now().UnixNano(), Node: t.bridge.node,
				Kind: ledger.KindSendError, Reason: fmt.Sprintf("link %d: %v", t.linkID, err),
			})
			live = live[1:]
		}
	}
	clear(t.live)
}

// ingress delivers one unframed payload into the livenet substrate.
// Runs on the bridge's read loop; payload aliases the read buffer and
// is copied by SendRaw before this returns. TypeTraced payloads shed
// their trace prefix first: the crossing is recorded as a
// "wire:<linkID>" span and the context rides into livenet so the
// network's tracer (if it resumes) follows the packet onward.
func (t *Tunnel) ingress(typ byte, payload []byte) {
	var ctx trace.Context
	var sent int64
	switch typ {
	case TypeData:
	case TypeTraced:
		var ok bool
		if ctx, ok = trace.DecodeContext(payload); !ok || len(payload) < tracedPrefixLen {
			t.decodeErrors.Add(1)
			t.bridge.flight.Record(ledger.Event{
				At: time.Now().UnixNano(), Node: t.bridge.node,
				Kind: ledger.KindDecodeError, Reason: fmt.Sprintf("link %d: short trace prefix (%d bytes)", t.linkID, len(payload)),
			})
			return
		}
		sent = int64(binary.BigEndian.Uint64(payload[trace.ContextWireLen:tracedPrefixLen]))
		payload = payload[tracedPrefixLen:]
	default:
		t.decodeErrors.Add(1)
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindDecodeError, Reason: fmt.Sprintf("link %d: unknown frame type 0x%02x", t.linkID, typ),
		})
		return
	}
	if len(payload) == 0 {
		t.decodeErrors.Add(1)
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindDecodeError, Reason: fmt.Sprintf("link %d: empty payload", t.linkID),
		})
		return
	}
	if t.down.Load() {
		t.dropped.Add(1)
		return
	}
	arrived := int64(0)
	if ctx.Valid() {
		arrived = time.Now().UnixNano()
	}
	if err := t.gw.SendRawTraced(t.gwPort, payload, ctx); err != nil {
		t.sendErrors.Add(1)
		return
	}
	t.decapsulated.Add(1)
	if ctx.Valid() {
		// Counted and recorded only for frames that actually entered the
		// substrate, so wire-span counts reconcile exactly with
		// TracedRecv across the cluster.
		t.tracedRecv.Add(1)
		t.bridge.spans.Record(trace.Span{
			Trace: ctx.ID, Stage: t.wireStage, Node: t.bridge.node,
			Start: sent, End: arrived,
		})
	}
}

// perDatagramSend is the portable writer: one WriteToUDP per datagram,
// stopping at the first failure.
func perDatagramSend(conn *net.UDPConn) sendBatch {
	return func(dgs [][]byte, to *net.UDPAddr) (int, error) {
		for i, dg := range dgs {
			if _, err := conn.WriteToUDP(dg, to); err != nil {
				return i, err
			}
		}
		return len(dgs), nil
	}
}

// perDatagramRecv is the portable reader: one ReadFromUDP into the first
// slot per call.
func perDatagramRecv(conn *net.UDPConn, bufs [][]byte) recvBatch {
	return func(lens []int) (int, error) {
		n, _, err := conn.ReadFromUDP(bufs[0])
		if err != nil {
			return 0, err
		}
		lens[0] = n
		return 1, nil
	}
}
