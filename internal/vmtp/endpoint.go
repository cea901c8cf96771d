package vmtp

import (
	"time"

	"repro/internal/clock"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/viper"
)

// Handler serves requests: it receives the caller's entity identifier
// and request data and returns the response data.
type Handler func(from uint64, data []byte) []byte

// Endpoint is the simulated driver: a VMTP entity bound to one Sirpent
// host endpoint in virtual time. The 64-bit entity identifier is
// "unique independent of the (inter)network layer addressing" (§4.1),
// which is what lets VMTP survive misdelivery, migration and
// multi-homing. Timers are sim.Engine events, Call completes through a
// callback over alternate routes, and the handler runs synchronously,
// so its response needs no "received, response pending" ack.
type Endpoint struct {
	core
	eng     *sim.Engine
	host    *router.Host
	clk     *clock.Clock
	hep     uint8 // host endpoint (intra-host port)
	handler Handler
}

// NewEndpoint binds a VMTP entity to a host endpoint.
func NewEndpoint(eng *sim.Engine, h *router.Host, clk *clock.Clock, id uint64, hostEndpoint uint8, cfg Config) *Endpoint {
	ep := &Endpoint{eng: eng, host: h, clk: clk, hep: hostEndpoint}
	ep.core.init(id, cfg, ep)
	h.Handle(hostEndpoint, ep.deliver)
	return ep
}

func (ep *Endpoint) now() time.Duration     { return time.Duration(ep.eng.Now()) }
func (ep *Endpoint) stamp() clock.Timestamp { return ep.clk.Timestamp() }

func (ep *Endpoint) after(d time.Duration, t timed) timer {
	st := &simTimer{eng: ep.eng}
	st.fn = func() { ep.run(t.fire(&ep.core)) }
	st.Reset(d)
	return st
}

// simTimer is a timer on the simulation engine.
type simTimer struct {
	eng *sim.Engine
	ev  sim.EventID
	fn  func()
}

func (t *simTimer) Reset(d time.Duration) bool {
	active := t.Stop()
	t.ev = t.eng.Schedule(sim.Time(d), t.fn)
	return active
}

func (t *simTimer) Stop() bool { return t.eng.Cancel(t.ev) }

// SetHandler installs the request handler (server role).
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

// SetRouteAdvisor installs a route-health oracle, typically backed by
// directory advisories (§6.3: "The clients benefit from these routing
// updates by periodically requesting route advisories from the routing
// servers"). Before transmitting on a route, the endpoint asks the
// advisor; a false answer skips straight to the next alternate without
// burning retransmission timeouts.
func (ep *Endpoint) SetRouteAdvisor(fn func(route []viper.Segment) bool) { ep.advisor = fn }

// RTT returns the smoothed round-trip estimate toward a server entity,
// or 0 if none yet.
func (ep *Endpoint) RTT(server uint64) sim.Time { return sim.Time(ep.srtt[server]) }

// Call starts a transaction to a server entity over the given alternate
// source routes (primary first), invoking done with the response or an
// error. Each route must be a full host route (sender directive first).
func (ep *Endpoint) Call(server uint64, routes [][]viper.Segment, data []byte, done func([]byte, error)) error {
	if len(routes) == 0 {
		return ErrNoRoutes
	}
	o, err := ep.begin(server, routes, data, done)
	if err == nil {
		ep.run(o)
	}
	return err
}

// Deliver injects a delivery as if it had arrived from the host's
// Sirpent layer; experiment harnesses use it to present crafted packets
// (stale timestamps, corrupted bytes, misdirected entities).
func (ep *Endpoint) Deliver(d *router.Delivery) { ep.deliver(d) }

func (ep *Endpoint) deliver(d *router.Delivery) {
	p, err := Decode(d.Data)
	if err != nil {
		// Corrupted en route (Sirpent has no network checksum) or
		// truncated by an undersized hop (§2): the transport discards.
		ep.Stats.ChecksumDrops++
		return
	}
	ep.run(ep.receive(p, d.ReturnRoute))
}

// run carries out a core step: packets go out at PacingGap spacing in
// virtual time, the handler answers a complete request at once, and a
// finished call's callback runs last.
func (ep *Endpoint) run(o out) {
	at := sim.Time(0)
	route := o.tx.route
	o.tx.each(ep.cfg.PacingGap, func(h Header, data []byte, wait time.Duration) {
		at += sim.Time(wait)
		p := &Packet{Header: h, Data: data}
		ep.eng.Schedule(at, func() {
			p.Timestamp = ep.clk.Timestamp()
			ep.host.SendFrom(ep.hep, route, p.Encode()) // a failed send is loss; retransmission recovers it
		})
	})
	if g := o.serve; g != nil {
		var resp []byte
		if ep.handler != nil {
			resp = ep.handler(g.key.client, g.data)
		}
		// A response larger than one group is not sent (pkts is nil); the
		// client's retries and CallTimeout end the call.
		pkts, _ := ep.packets(KindResponse, g.key.client, ep.id, g.key.txn, resp)
		ep.run(ep.respond(g, pkts))
	}
	if c := o.done; c != nil && c.done != nil {
		c.done(c.data, c.err)
	}
}
