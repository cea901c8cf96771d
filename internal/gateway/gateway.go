// Package gateway turns real TCP byte streams into Sirpent traffic: a
// SOCKS5 ingress host accepts ordinary client connections, assigns
// each a stream identifier, and segments its bytes into VMTP packet
// groups source-routed through the mesh; an egress host reassembles
// the groups in order, dials the real destination, and relays the
// return direction the same way. It is the subsystem where correctness
// means "the application's bytes arrive intact and in order", not "the
// trailer matches" (DESIGN.md §13).
//
// Transport contract. Each stream message (wire.go) rides as one VMTP
// transaction issued by vmtp.RT over a livenet host — so gateway hosts
// are ordinary token-charged endpoints and every stream byte is billed
// to the gateway's account and reconciles in the ledger like any other
// traffic. Data groups within a stream carry sequence numbers; the
// receiver admits them through a vmtp.Sequencer, writing to the local
// socket strictly in order no matter how transactions interleave.
//
// Backpressure. There is no unbounded buffering anywhere on the path:
// the receiving relay only acknowledges a data group after its bytes
// are written to the destination socket, and the sending relay holds
// at most Window unacknowledged groups before its socket-reading pump
// stops reading. A slow destination therefore stalls the egress
// write, which stalls the ingress window, which stops the ingress
// read, which fills the kernel TCP buffer and backpressures the SOCKS
// client — end to end through VMTP's own rate machinery.
//
// Ownership rules. The relay owns its net.Conn and its vmtp.RT
// endpoint; handler goroutines (one per inbound transaction, spawned
// by RT) may block on socket writes and sequencer turns, and teardown
// always aborts the sequencer before closing the RT so no goroutine is
// left waiting. Msg.Data returned by DecodeMsg aliases the transaction
// buffer and is written out before the handler returns, never
// retained.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
	"repro/internal/vmtp"
)

// Config tunes a gateway relay (ingress or egress side).
type Config struct {
	// Entity is this relay's VMTP entity identifier.
	Entity uint64
	// Peer is the egress entity an ingress opens streams toward
	// (unused on the egress side, which learns peers from Open
	// messages).
	Peer uint64
	// Route is the source route from the ingress host to the egress
	// host. Its tokens must be ReverseOK so the mirrored trailer
	// yields a token-valid return route for egress→ingress traffic.
	Route []viper.Segment
	// Window is the per-stream, per-direction cap on unacknowledged
	// data groups in flight. Default 4.
	Window int
	// GroupBytes is how many stream bytes ride in one VMTP packet
	// group. Default (and max) one full group: 32 packets of
	// MaxPacketData minus the stream header.
	GroupBytes int
	// HandshakeTimeout bounds the SOCKS negotiation. Default 10s.
	HandshakeTimeout time.Duration
	// DialTimeout bounds the egress destination dial. Default 10s.
	DialTimeout time.Duration
	// Dial overrides the egress dialer (tests). Default
	// net.DialTimeout("tcp", addr, DialTimeout).
	Dial func(addr string) (net.Conn, error)
	// MaxStreams bounds concurrent streams on the egress. Default 1024.
	MaxStreams int
	// RT tunes the underlying real-time VMTP endpoint.
	RT vmtp.Config
	// Telemetry, when set, receives per-stage stream spans: the sender
	// side records each sampled data group's full mesh round trip
	// ("stream-ingress" uplink, "stream-return" downlink), the
	// receiving side the one-way transit ("stream-transit") and its
	// destination-socket write ("stream-egress" at the egress,
	// "stream-client-write" at the ingress) — all under one trace ID
	// carried in the message's FlagTraced context. nil disables stream
	// tracing entirely (no wire bytes, no clock reads).
	Telemetry *trace.Spans
	// TraceEvery samples one data group in N for stage tracing; <= 1
	// traces every group. Ignored when Telemetry is nil.
	TraceEvery int
	// Node names this relay's process in recorded spans.
	Node string
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 4
	}
	// The trace context is reserved unconditionally so a sampled group
	// never overflows the VMTP group capacity a full unsampled group
	// fits exactly (17 bytes in ~32 KiB).
	maxGroup := vmtp.MaxGroupPackets*vmtp.MaxPacketData - msgHeaderLen - trace.ContextWireLen
	if c.GroupBytes == 0 || c.GroupBytes > maxGroup {
		c.GroupBytes = maxGroup
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 1024
	}
	return c
}

// Stats is a point-in-time snapshot of a relay's counters.
type Stats struct {
	Streams       uint64 // streams ever opened
	ActiveStreams int
	CleanCloses   uint64 // both FINs delivered and applied
	Resets        uint64 // hard teardowns (errors, aborts, peer Close)
	SocksErrors   uint64 // ingress: failed SOCKS negotiations
	OpenFailures  uint64 // ingress: Open calls answered with failure
	DialErrors    uint64 // egress: destination dials that failed
	BytesIn       uint64 // bytes read from local sockets into the mesh
	BytesOut      uint64 // bytes from the mesh written to local sockets
	GroupsSent    uint64 // data groups sent (successful transactions)
	// Group round-trip latency over the mesh, microseconds.
	GroupRTTp50us  int64
	GroupRTTp99us  int64
	GroupRTTMeanus float64
	VMTP           vmtp.Stats
}

// ErrGatewayClosed reports a relay shut down mid-operation.
var ErrGatewayClosed = errors.New("gateway: closed")

var errPeerClosed = errors.New("gateway: peer closed stream")

type streamKey struct {
	peer uint64 // remote relay entity
	id   uint32
}

// stream is one relayed TCP connection (one side of it).
type stream struct {
	key     streamKey
	conn    net.Conn
	route   []viper.Segment // where outbound calls for this stream go
	inSeq   *vmtp.Sequencer // orders inbound data groups
	outSeq  uint32          // next outbound group sequence (pump goroutine only)
	window  chan struct{}   // outbound in-flight slots
	done    chan struct{}
	once    sync.Once
	finSent atomic.Bool // our FIN delivered and acknowledged
	finRecv atomic.Bool // peer's FIN applied to our socket
}

// relay is the shared machine under Ingress and Egress.
type relay struct {
	rt  *vmtp.RT
	cfg Config

	mu      sync.Mutex
	streams map[streamKey]*stream
	closed  bool
	wg      sync.WaitGroup

	latMu sync.Mutex
	lat   stats.Log2Histogram

	// Stream-stage tracing (nil cfg.Telemetry leaves all of it idle).
	sendStage string // span stage for groups this relay sends
	recvStage string // span stage for groups this relay applies
	ctxBase   uint64 // OR-ed into stream trace IDs
	traceSeq  atomic.Uint64

	nStreams    atomic.Uint64
	cleanCloses atomic.Uint64
	resets      atomic.Uint64
	socksErrors atomic.Uint64
	openFails   atomic.Uint64
	dialErrors  atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	groupsSent  atomic.Uint64

	// open serves OpOpen; only the egress installs it.
	open func(m *Msg, from uint64, ret []viper.Segment) []byte
}

// bindRT creates the relay's RT endpoint on a livenet host endpoint:
// the host's SendFrom is the carrier — the origin trailer names this
// endpoint, so the peer's return route lands back here rather than on
// the host's default handler — and deliveries feed RT's non-blocking
// queue (Deliver decodes, and thereby copies, before the pooled buffer
// is recycled).
func (r *relay) bindRT(host *livenet.Host, endpoint uint8, cfg Config) {
	r.cfg = cfg.withDefaults()
	r.streams = make(map[streamKey]*stream)
	// Stream trace IDs live in their own namespace (top byte 0x67,
	// "g") so they can share a Spans store with packet-level traces
	// without colliding.
	r.ctxBase = uint64(0x67)<<56 | (cfg.Entity&0xFF)<<48
	carrier := vmtp.CarrierFunc(func(route []viper.Segment, data []byte) error {
		return host.SendFrom(endpoint, route, data)
	})
	r.rt = vmtp.NewRT(cfg.Entity, carrier, cfg.RT)
	r.rt.SetHandler(r.onMsg)
	host.Handle(endpoint, func(d livenet.Delivery) {
		r.rt.Deliver(d.Data, d.ReturnRoute)
	})
}

func (r *relay) newStream(key streamKey, conn net.Conn, route []viper.Segment) *stream {
	return &stream{
		key:    key,
		conn:   conn,
		route:  route,
		inSeq:  vmtp.NewSequencer(),
		window: make(chan struct{}, r.cfg.Window),
		done:   make(chan struct{}),
	}
}

// register adds a stream; it fails once the relay is closed or (when
// bound is true) the stream limit is hit.
func (r *relay) register(st *stream, bound bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || (bound && len(r.streams) >= r.cfg.MaxStreams) {
		return false
	}
	if _, dup := r.streams[st.key]; dup {
		return false
	}
	r.streams[st.key] = st
	r.nStreams.Add(1)
	return true
}

func (r *relay) lookup(peer uint64, id uint32) *stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[streamKey{peer: peer, id: id}]
}

// reset hard-tears a stream down: socket closed, sequencer aborted,
// in-flight senders released. When notify is set the peer is told with
// a best-effort Close message so its side tears down too (and stops
// being billed for retransmissions toward a dead socket).
func (r *relay) reset(st *stream, notify bool, err error) {
	st.once.Do(func() {
		close(st.done)
		st.conn.Close()
		st.inSeq.Abort(err)
		r.mu.Lock()
		delete(r.streams, st.key)
		closed := r.closed
		r.mu.Unlock()
		r.resets.Add(1)
		if notify && !closed {
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				m := &Msg{Op: OpClose, Stream: st.key.id}
				r.rt.Call(st.key.peer, st.route, m.Encode())
			}()
		}
	})
}

// maybeFinish completes a clean bidirectional shutdown once both FINs
// have been delivered and applied.
func (r *relay) maybeFinish(st *stream) {
	if !st.finSent.Load() || !st.finRecv.Load() {
		return
	}
	st.once.Do(func() {
		close(st.done)
		st.conn.Close()
		r.mu.Lock()
		delete(r.streams, st.key)
		r.mu.Unlock()
		r.cleanCloses.Add(1)
	})
}

// pump is the outbound loop: it reads the local socket and ships each
// chunk as one in-order data group, holding at most Window groups in
// flight. EOF becomes an empty FIN group; any other read error resets
// the stream on both sides.
func (r *relay) pump(st *stream) {
	defer r.wg.Done()
	buf := make([]byte, r.cfg.GroupBytes)
	for {
		n, err := st.conn.Read(buf)
		if n > 0 && !r.sendGroup(st, buf[:n], false) {
			return
		}
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // torn down elsewhere
			}
			if isEOF(err) {
				r.sendGroup(st, nil, true)
			} else {
				r.reset(st, true, err)
			}
			return
		}
	}
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF)
}

// sendGroup acquires a window slot and issues the data group's VMTP
// transaction asynchronously; the slot is held until the receiver has
// written the bytes and replied. data is encoded before sendGroup
// returns, so the caller may reuse it. Returns false once the stream is
// dead.
func (r *relay) sendGroup(st *stream, data []byte, fin bool) bool {
	seq := st.outSeq
	st.outSeq++
	select {
	case st.window <- struct{}{}:
	case <-st.done:
		return false
	}
	m := &Msg{Op: OpData, Fin: fin, Stream: st.key.id, Seq: seq, Data: data}
	if r.cfg.Telemetry != nil {
		if n := r.traceSeq.Add(1); r.cfg.TraceEvery <= 1 || n%uint64(r.cfg.TraceEvery) == 0 {
			m.Ctx = trace.Context{ID: r.ctxBase | n, Origin: time.Now().UnixNano(), Budget: trace.DefaultHopBudget}
		}
	}
	wire, size := m.Encode(), uint64(len(data))
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() { <-st.window }()
		start := time.Now()
		rep, err := r.rt.Call(st.key.peer, st.route, wire)
		if err == nil && DecodeReply(rep) == ReplySuccess {
			r.latMu.Lock()
			r.lat.Add(time.Since(start).Microseconds())
			r.latMu.Unlock()
			r.groupsSent.Add(1)
			r.bytesIn.Add(size)
			if m.Ctx.Valid() {
				// The group's whole mesh round trip — segmentation, every
				// tunnel crossing, relay forwarding, the far socket write,
				// and the reply — as the sending side observed it.
				r.cfg.Telemetry.Record(trace.Span{
					Trace: m.Ctx.ID, Stage: r.sendStage, Node: r.cfg.Node,
					Start: m.Ctx.Origin, End: time.Now().UnixNano(),
				})
			}
			if fin {
				// Quiesce the window before declaring our half done: the
				// FIN's in-order delivery proves every earlier group was
				// applied remotely, but their sender goroutines may not
				// have counted bytes yet. Holding every slot at once means
				// they all released — i.e. finished accounting — so stats
				// taken after a clean close reconcile exactly (the cluster
				// telemetry verifier leans on this).
				for i := 0; i < cap(st.window)-1; i++ {
					select {
					case st.window <- struct{}{}:
					case <-st.done:
						return
					}
				}
				for i := 0; i < cap(st.window)-1; i++ {
					<-st.window
				}
				st.finSent.Store(true)
				r.maybeFinish(st)
			}
			return
		}
		if err == nil {
			err = fmt.Errorf("gateway: peer rejected data group (code %d)", DecodeReply(rep))
		}
		r.reset(st, true, err)
	}()
	return true
}

// onMsg is the RT handler: one goroutine per inbound transaction, free
// to block on the sequencer and the socket write — that blocking IS
// the backpressure path (the sender's window slot stays held until we
// reply).
func (r *relay) onMsg(from uint64, data []byte, ret []viper.Segment) []byte {
	m, err := DecodeMsg(data)
	if err != nil {
		return EncodeReply(ReplyGeneralFailure)
	}
	switch m.Op {
	case OpOpen:
		if r.open == nil {
			return EncodeReply(ReplyCmdNotSupported)
		}
		return r.open(m, from, ret)
	case OpData:
		return r.onData(r.lookup(from, m.Stream), m)
	case OpClose:
		if st := r.lookup(from, m.Stream); st != nil {
			r.reset(st, false, errPeerClosed)
		}
		return EncodeReply(ReplySuccess)
	}
	return EncodeReply(ReplyGeneralFailure)
}

func (r *relay) onData(st *stream, m *Msg) []byte {
	if st == nil {
		return EncodeReply(ReplyGeneralFailure)
	}
	var arrived int64
	if r.cfg.Telemetry != nil && m.Ctx.Valid() {
		arrived = time.Now().UnixNano()
	}
	if err := st.inSeq.Admit(m.Seq); err != nil {
		if errors.Is(err, vmtp.ErrReplayed) {
			// The peer retried a group we already applied (its reply
			// was lost): idempotent success, bytes not rewritten.
			return EncodeReply(ReplySuccess)
		}
		return EncodeReply(ReplyGeneralFailure)
	}
	var werr error
	if len(m.Data) > 0 {
		var n int
		n, werr = st.conn.Write(m.Data)
		r.bytesOut.Add(uint64(n))
	}
	finish := false
	if werr == nil && m.Fin {
		st.finRecv.Store(true)
		closeWrite(st.conn)
		finish = true
	}
	st.inSeq.Done()
	if werr != nil {
		r.reset(st, true, werr)
		return EncodeReply(ReplyGeneralFailure)
	}
	if finish {
		r.maybeFinish(st)
	}
	if arrived != 0 {
		// Recorded only on first apply (retried groups return through the
		// ErrReplayed path above), so receive-side span counts match the
		// sender's successful-group count on a clean run. The transit
		// span leans on the cluster's shared wall clock, like the
		// tunnels' wire spans.
		done := time.Now().UnixNano()
		r.cfg.Telemetry.Record(trace.Span{
			Trace: m.Ctx.ID, Stage: "stream-transit", Node: r.cfg.Node,
			Start: m.Ctx.Origin, End: arrived,
		})
		r.cfg.Telemetry.Record(trace.Span{
			Trace: m.Ctx.ID, Stage: r.recvStage, Node: r.cfg.Node,
			Start: arrived, End: done,
		})
	}
	return EncodeReply(ReplySuccess)
}

// closeWrite half-closes the write side if the transport supports it
// (TCP does); receivers treat it as the stream's FIN.
func closeWrite(c net.Conn) {
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
}

// closeRelay tears every stream down, closes the RT endpoint, and
// waits for all relay goroutines.
func (r *relay) closeRelay() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sts := make([]*stream, 0, len(r.streams))
	for _, st := range r.streams {
		sts = append(sts, st)
	}
	r.mu.Unlock()
	for _, st := range sts {
		r.reset(st, false, ErrGatewayClosed)
	}
	r.rt.Close()
	r.wg.Wait()
}

// Stats snapshots the relay counters.
func (r *relay) Stats() Stats {
	r.mu.Lock()
	active := len(r.streams)
	r.mu.Unlock()
	r.latMu.Lock()
	p50 := r.lat.Percentile(50)
	p99 := r.lat.Percentile(99)
	mean := r.lat.Mean()
	r.latMu.Unlock()
	return Stats{
		Streams:        r.nStreams.Load(),
		ActiveStreams:  active,
		CleanCloses:    r.cleanCloses.Load(),
		Resets:         r.resets.Load(),
		SocksErrors:    r.socksErrors.Load(),
		OpenFailures:   r.openFails.Load(),
		DialErrors:     r.dialErrors.Load(),
		BytesIn:        r.bytesIn.Load(),
		BytesOut:       r.bytesOut.Load(),
		GroupsSent:     r.groupsSent.Load(),
		GroupRTTp50us:  p50,
		GroupRTTp99us:  p99,
		GroupRTTMeanus: mean,
		VMTP:           r.rt.Stats(),
	}
}

// PeerRTTs reports the relay's smoothed VMTP round-trip estimate toward
// each peer entity it has called, in nanoseconds — the per-peer latency
// the daemon folds into its telemetry report.
func (r *relay) PeerRTTs() map[uint64]int64 {
	rtts := r.rt.RTTs()
	out := make(map[uint64]int64, len(rtts))
	for k, v := range rtts {
		out[k] = v.Nanoseconds()
	}
	return out
}
