package livenet

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/viper"
)

// Sender is a prepared injection path for one route: route sealing,
// packet layout, and wire encoding happen once at construction, so each
// Send stamps the payload into a pooled copy of the wire image and
// enqueues it — the per-packet analogue of a prepared statement. Host
// injection otherwise costs ~7 allocations per packet (route clone,
// sealing, packet assembly, encode), which dominates short-chain
// throughput measurements; a Sender injects with zero allocations in
// steady state.
//
// Payload length is fixed at construction — the encoded image embeds
// it, and the trailing descriptor's position depends on it.
type Sender struct {
	h        *Host
	port     uint8
	hdr      []byte // first-hop link header template, nil when the route has none
	wire     []byte // full encoded packet with a zero payload
	dataOff  int    // payload offset within wire
	dataLen  int
	headroom int
}

// NewSender prepares a route for repeated injection. The route is
// interpreted exactly as Host.Send interprets it: the first segment is
// the sender's own directive (out port, link header), the rest is the
// source route carried by the packet.
func (h *Host) NewSender(route []viper.Segment, dataLen int) (*Sender, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("livenet: empty route")
	}
	own := route[0]
	rest := route[1:]
	headerLen := routeWireLen(rest)
	wire, err := appendWireImage(make([]byte, 0, wireImageLen(rest, dataLen, own.Priority)),
		rest, make([]byte, dataLen), viper.PortLocal, own.Priority)
	if err != nil {
		return nil, err
	}
	s := &Sender{
		h:        h,
		port:     own.Port,
		wire:     wire,
		dataOff:  headerLen,
		dataLen:  dataLen,
		headroom: frameHeadroom(len(rest), headerLen),
	}
	if len(own.PortInfo) > 0 {
		s.hdr = append([]byte(nil), own.PortInfo...)
	}
	return s, nil
}

// Send injects one packet carrying data, which must have the prepared
// length. Tracing, when enabled on the network, records the origin hop
// exactly as Host.Send does.
func (s *Sender) Send(data []byte) error {
	if len(data) != s.dataLen {
		return fmt.Errorf("livenet: prepared sender wants %d payload bytes, got %d", s.dataLen, len(data))
	}
	buf := pool.Get(len(s.wire) + s.headroom)
	buf = append(buf, s.wire...)
	copy(buf[s.dataOff:], data)
	f := Frame{Pkt: buf, buf: buf[:0]}
	if s.hdr != nil {
		// Copied per send: the first-hop router swaps the header in place.
		f.Hdr = append([]byte(nil), s.hdr...)
	}
	return s.h.inject(s.port, f, trace.Start(s.h.netw.currentTracer(), data))
}

// SetRawHandler installs a pre-decode delivery tap: every frame arriving
// at the host is handed to fn as the raw encoded packet and consumed,
// skipping VIPER decode, endpoint dispatch, and return-route
// construction. The bytes alias the frame's pooled buffer and are valid
// only until fn returns. For sinks that only count or copy — packet
// mirrors, benchmark endpoints — this removes the per-delivery decode
// allocations. Pass nil to restore normal endpoint dispatch.
func (h *Host) SetRawHandler(fn func(pkt []byte)) {
	if fn == nil {
		h.raw.Store(nil)
		return
	}
	wrapped := func(pkt []byte, _ trace.Context) { fn(pkt) }
	h.raw.Store(&wrapped)
}

// SetRawTap is SetRawHandler for sinks that forward frames to another
// process (internal/udpnet's tunnels): fn additionally receives the
// frame's cross-process trace context — zero for untraced frames — so
// the tap can carry the trace onto its transport. Pass nil to restore
// normal endpoint dispatch.
func (h *Host) SetRawTap(fn func(pkt []byte, ctx trace.Context)) {
	if fn == nil {
		h.raw.Store(nil)
		return
	}
	h.raw.Store(&fn)
}

// rawTap returns the installed raw handler, or nil.
func (h *Host) rawTap() func(pkt []byte, ctx trace.Context) {
	if p := h.raw.Load(); p != nil {
		return *p
	}
	return nil
}
