package check

import (
	"bytes"
	"time"

	"repro/internal/livenet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// LiveNet is a scenario realized on the goroutine substrate, with the
// fault-injection handles the invariant tests flip mid-flight.
type LiveNet struct {
	Net       *livenet.Network
	Routers   []*livenet.Router
	Hosts     []*livenet.Host
	Links     []*livenet.Link // router-router, index-aligned with Scenario.Links
	HostLinks []*livenet.Link // host-router, index-aligned with hosts
}

// BuildLivenet realizes a scenario on the livenet substrate with the
// same explicit port numbering as BuildNetsim. Options select the
// livenet shape — batch size and shard count — which is how the shape
// parity suite realizes one scenario several ways.
func BuildLivenet(sc *Scenario, opts ...livenet.NetworkOption) *LiveNet {
	ln := &LiveNet{Net: livenet.NewNetwork(opts...)}
	for i := 0; i < sc.NRouters; i++ {
		ln.Routers = append(ln.Routers, ln.Net.NewRouter(RouterName(i)))
	}
	for i := range sc.HostRouter {
		ln.Hosts = append(ln.Hosts, ln.Net.NewHost(HostName(i)))
	}
	for _, l := range sc.Links {
		ln.Links = append(ln.Links, ln.Net.Connect(ln.Routers[l.A], l.APort, ln.Routers[l.B], l.BPort, livenet.WithDepth(64)))
	}
	for i, ri := range sc.HostRouter {
		ln.HostLinks = append(ln.HostLinks, ln.Net.Connect(ln.Hosts[i], 1, ln.Routers[ri], sc.HostPort[i], livenet.WithDepth(64)))
	}
	return ln
}

// Dropped sums the frames discarded by fault injection across all links.
func (ln *LiveNet) Dropped() uint64 {
	var n uint64
	for _, l := range ln.Links {
		n += l.Dropped()
	}
	for _, l := range ln.HostLinks {
		n += l.Dropped()
	}
	return n
}

// RouterDrops sums the routers' drop counters.
func (ln *LiveNet) RouterDrops() uint64 {
	return ln.RouterCounters().TotalDrops()
}

// RouterCounters merges every router's counter snapshot into one
// stats.Counters, the substrate-neutral surface the differential suite
// diffs against netsim's.
func (ln *LiveNet) RouterCounters() stats.Counters {
	var c stats.Counters
	for _, r := range ln.Routers {
		c.Merge(r.Stats())
	}
	return c
}

// InstallEcho registers the harness protocol on every host: requests are
// recorded and echoed along the accumulated return route, replies are
// recorded. Handlers run on host goroutines; Result is locked.
func (ln *LiveNet) InstallEcho(sc *Scenario, res *Result) {
	for i := range ln.Hosts {
		name := HostName(i)
		h := ln.Hosts[i]
		h.Handle(0, func(d livenet.Delivery) {
			id, kind, ok := ParseData(d.Data)
			if !ok || id == 0 || int(id) > len(sc.Flows) {
				res.AddGarbled()
				return
			}
			switch kind {
			case kindRequest:
				f := sc.Flows[id-1]
				res.AddDelivery(id, DeliveryRec{
					Host:   name,
					Fp:     Fingerprint(d.ReturnRoute),
					DataOK: bytes.Equal(d.Data, FlowData(f)),
				})
				if err := h.Send(d.ReturnRoute, ReplyData(id)); err != nil {
					res.AddSendErr()
				}
			case kindReply:
				res.AddReply(id, name)
			default:
				res.AddGarbled()
			}
		})
	}
}

// Settle polls until the result and fault counters stop changing for a
// stretch of quietPolls, or the deadline passes. With goroutines there
// is no virtual clock to drain, so stability is the quiesce criterion.
func (ln *LiveNet) Settle(res *Result, deadline time.Duration) {
	const (
		pollEvery  = 2 * time.Millisecond
		quietPolls = 30
	)
	type snap struct {
		deliv, reply, garbled, sendErrs int
		dropped, routerDrops            uint64
	}
	take := func() snap {
		d, r, g, s := res.Counts()
		return snap{d, r, g, s, ln.Dropped(), ln.RouterDrops()}
	}
	last := take()
	quiet := 0
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		time.Sleep(pollEvery)
		cur := take()
		if cur == last {
			quiet++
			if quiet >= quietPolls {
				return
			}
			continue
		}
		quiet = 0
		last = cur
	}
}

// RunLivenet injects every flow into the livenet realization, waits for
// quiesce, stops the network, and returns the observations plus the
// merged router counters for generic diffing against the other
// substrate.
func RunLivenet(sc *Scenario, routes map[uint64][]viper.Segment, deadline time.Duration) (*Result, stats.Counters) {
	return runLivenet(sc, routes, deadline, nil)
}

// runLivenet is the shared body; a non-nil tracer is installed on the
// network before any flow is injected.
func runLivenet(sc *Scenario, routes map[uint64][]viper.Segment, deadline time.Duration, tr trace.Tracer, opts ...livenet.NetworkOption) (*Result, stats.Counters) {
	ln := BuildLivenet(sc, opts...)
	defer ln.Net.Stop()
	if tr != nil {
		ln.Net.SetTracer(tr)
	}
	res := NewResult()
	ln.InstallEcho(sc, res)
	for _, f := range sc.Flows {
		if err := ln.Hosts[f.Src].Send(routes[f.ID], FlowData(f)); err != nil {
			res.AddSendErr()
		}
	}
	ln.Settle(res, deadline)
	return res, ln.RouterCounters()
}
