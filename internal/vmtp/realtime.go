package vmtp

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/pool"
	"repro/internal/viper"
)

// This file is the real-time driver of the VMTP core: the same
// protocol on wall-clock timers, safe for concurrent callers, so real
// application bytes (internal/gateway) can ride VMTP packet groups over
// the livenet substrate. An RT endpoint is bound to a Carrier — any
// "send these encoded bytes along this source route" primitive, in
// practice a livenet host — and fed arriving packets through Deliver.
//
// What differs from the simulated driver is only what a driver owns:
//
//   - Clock and timers: time.AfterFunc timers whose expiry takes mu,
//     and pacing by sleeping the sending goroutine.
//   - Call shape: Call blocks, over one route. The caller's goroutine
//     is the natural unit of flow control for stream relaying: a
//     transaction that cannot complete (slow receiver, congested mesh)
//     holds its caller, and the backpressure propagates to whatever
//     socket feeds it. Alternate routes stay with the directory; RT
//     callers re-query on error.
//   - Handler execution: one goroutine per transaction, which MAY
//     block. Because the response is then pending, dispatch sends the
//     full-group ack, after which the client only probes (FlagProbe)
//     — a handler deliberately blocking for backpressure must not
//     trigger request retransmission storms. Deliver never blocks:
//     packets are decoded and queued to a receive goroutine, and a
//     full queue drops the packet (Stats.QueueDrops). Retransmission
//     recovers it as it would wire loss, which keeps the delivering
//     goroutine (a livenet host) deadlock-free however congested the
//     endpoint.

// Carrier is the packet path under a real-time endpoint: Send
// transmits one encoded VMTP packet along a source route. pkt is valid
// only for the duration of the call — the endpoint recycles it — so a
// carrier that keeps the bytes copies them. livenet's Host.SendFrom
// satisfies it via CarrierFunc.
type Carrier interface {
	Send(route []viper.Segment, pkt []byte) error
}

// CarrierFunc adapts a function to the Carrier interface.
type CarrierFunc func(route []viper.Segment, pkt []byte) error

// Send implements Carrier.
func (f CarrierFunc) Send(route []viper.Segment, pkt []byte) error { return f(route, pkt) }

// RTHandler serves requests on a real-time endpoint. It runs on its
// own goroutine per transaction and MAY block (that is the
// backpressure path); ret is the trailer-built return route of the
// request's freshest packet, deep-copied and safe to retain.
type RTHandler func(from uint64, data []byte, ret []viper.Segment) []byte

// RT is a real-time VMTP entity: the transactional packet-group
// transport of §4 driven by wall-clock timers over an arbitrary
// Carrier. All methods are safe for concurrent use.
type RT struct {
	mu sync.Mutex
	core
	car     Carrier
	epoch   time.Time
	handler RTHandler

	rx   chan rtDelivery
	done chan struct{}
	wg   sync.WaitGroup
}

type rtDelivery struct {
	pkt *Packet
	ret []viper.Segment
}

type rtResult struct {
	data []byte
	err  error
}

// NewRT creates a real-time VMTP entity with identifier id over the
// carrier. The caller feeds arriving packets through Deliver and must
// Close the endpoint when done.
func NewRT(id uint64, car Carrier, cfg Config) *RT {
	rt := &RT{car: car, epoch: time.Now(), done: make(chan struct{})}
	rt.core.init(id, cfg, rt)
	rt.rx = make(chan rtDelivery, rt.cfg.QueueDepth)
	rt.wg.Add(1)
	go rt.rxLoop()
	return rt
}

func (rt *RT) now() time.Duration     { return time.Since(rt.epoch) }
func (rt *RT) stamp() clock.Timestamp { return nowTimestamp() }

func (rt *RT) after(d time.Duration, t timed) timer {
	return time.AfterFunc(d, func() {
		rt.mu.Lock()
		o := t.fire(&rt.core)
		rt.mu.Unlock()
		rt.run(o)
	})
}

func nowTimestamp() clock.Timestamp {
	return clock.Timestamp(uint32(time.Now().UnixMilli()))
}

// SetHandler installs the request handler (server role). Each
// transaction's handler invocation runs on its own goroutine.
func (rt *RT) SetHandler(h RTHandler) {
	rt.mu.Lock()
	rt.handler = h
	rt.mu.Unlock()
}

// Stats returns a snapshot of the endpoint's counters.
func (rt *RT) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.core.Stats
}

// RTT returns the smoothed round-trip estimate toward a server entity,
// or 0 if none yet.
func (rt *RT) RTT(server uint64) time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.srtt[server]
}

// RTTs returns a copy of every smoothed round-trip estimate, keyed by
// server entity — the per-peer latency view telemetry reports ship to
// the directory.
func (rt *RT) RTTs() map[uint64]time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[uint64]time.Duration, len(rt.srtt))
	for k, v := range rt.srtt {
		out[k] = v
	}
	return out
}

// Close shuts the endpoint down: outstanding calls fail with
// ErrClosed, timers are cancelled, and in-flight handler goroutines
// are waited for.
func (rt *RT) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	calls := rt.close()
	close(rt.done)
	rt.mu.Unlock()
	for _, c := range calls {
		c.done(nil, ErrClosed)
	}
	rt.wg.Wait()
}

// Deliver injects one arriving packet. data may alias a buffer the
// caller recycles after return (it is decoded, and thereby copied,
// before queuing); ret must be safe to retain (livenet's
// Delivery.ReturnRoute already is). Deliver never blocks: if the
// receive queue is full the packet is dropped and retransmission
// recovers it.
func (rt *RT) Deliver(data []byte, ret []viper.Segment) {
	p, err := Decode(data)
	if err == nil {
		select {
		case rt.rx <- rtDelivery{pkt: p, ret: ret}:
			return
		default:
		}
	}
	rt.mu.Lock()
	if err != nil {
		rt.core.Stats.ChecksumDrops++
	} else {
		rt.core.Stats.QueueDrops++
	}
	rt.mu.Unlock()
}

func (rt *RT) rxLoop() {
	defer rt.wg.Done()
	for {
		select {
		case d := <-rt.rx:
			rt.mu.Lock()
			o := rt.receive(d.pkt, d.ret)
			if g := o.serve; g != nil && !rt.closed {
				o.tx = rt.accepted(g)
				rt.wg.Add(1)
				// data and ret are snapshotted under mu: receive keeps
				// refreshing g.ret as duplicate packets arrive.
				go rt.serve(g, g.data, g.ret, rt.handler)
			}
			rt.mu.Unlock()
			rt.run(o)
		case <-rt.done:
			return
		}
	}
}

// serve runs the handler on its own goroutine and transmits (and
// caches) the response group.
func (rt *RT) serve(g *rxGroup, data []byte, ret []viper.Segment, handler RTHandler) {
	defer rt.wg.Done()
	var resp []byte
	if handler != nil {
		resp = handler(g.key.client, data, ret)
	}
	// A response larger than one group is not sent (pkts is nil); the
	// client's retries and CallTimeout end the call.
	pkts, _ := rt.packets(KindResponse, g.key.client, rt.id, g.key.txn, resp)
	rt.mu.Lock()
	o := rt.respond(g, pkts)
	rt.mu.Unlock()
	rt.run(o)
}

// Call runs one transaction to a server entity along a source route,
// blocking until the response arrives or the call fails. data larger
// than one packet is segmented into a paced packet group (§4.3).
func (rt *RT) Call(server uint64, route []viper.Segment, data []byte) ([]byte, error) {
	result := make(chan rtResult, 1)
	rt.mu.Lock()
	o, err := rt.begin(server, [][]viper.Segment{route}, data, func(resp []byte, cerr error) {
		result <- rtResult{resp, cerr}
	})
	rt.mu.Unlock()
	if err != nil {
		return nil, err
	}
	rt.run(o)
	res := <-result
	return res.data, res.err
}

// run carries out a core step outside mu: packets go out on the
// calling goroutine, sleeping PacingGap between them, each stamped
// with its transmission time and encoded into a pooled buffer; then a
// finished call's caller is released.
func (rt *RT) run(o out) {
	o.tx.each(rt.cfg.PacingGap, func(h Header, data []byte, wait time.Duration) {
		if wait > 0 {
			time.Sleep(wait)
		}
		q := Packet{Header: h, Data: data}
		q.Timestamp = nowTimestamp()
		n := HeaderLen + len(data)
		wire := q.encodeInto(pool.Get(n)[:n])
		rt.car.Send(o.tx.route, wire) // a failed send is loss; retransmission recovers it
		pool.Put(wire)
	})
	if c := o.done; c != nil {
		c.done(c.data, c.err)
	}
}
