package main

import (
	"repro/internal/clock"
	"repro/internal/dataplane"
	"repro/internal/token"
	"repro/internal/viper"
)

// Replays of the datagram workloads' own routes, tokens and sizes
// through single layers' public functions, timed in isolation: the
// per-packet costs the traced run sets against the measured CPU per
// datagram.

const (
	replayBatches = 5
	replayIters   = 20000
	issueIters    = 2000
)

type replayOut struct {
	encodeNs, decodeNs, hopNs, checkNs, issueNs float64
	overhead                                    float64 // wire bytes beyond the payload, at origin
}

// timeBatches runs fn(i) iters times per batch and returns the median
// over batches of the mean nanoseconds per call.
func timeBatches(iters int, fn func(i int)) float64 {
	per := make([]float64, replayBatches)
	for b := range per {
		t0 := now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		per[b] = float64(now()-t0) / float64(iters)
	}
	return median(per)
}

// hopState is one router's decision kernel as the chain configures it:
// the pipeline plus a token state with the router's authority and
// required ports.
type hopState struct {
	pl     dataplane.Pipeline
	ts     *dataplane.TokenState
	inPort uint8
}

// hop runs one §6.2 forwarding step on pkt, as a livenet router does:
// decode the leading segment, decide (verifying an uncached token),
// build the mirrored return segment and append it to the trailer. It
// returns the packet the next node receives.
func (h *hopState) hop(pkt []byte) []byte {
	seg, rest, err := dataplane.DecodeHop(pkt)
	if err != nil {
		return nil
	}
	in := dataplane.HopInput{InPort: h.inPort, Seg: &seg, ChargeBytes: uint64(len(pkt))}
	v := h.pl.Decide(h.ts, &in)
	if v.Action == dataplane.ActionAwaitToken {
		v = h.pl.InstallToken(h.ts, &in)
	}
	if v.Action == dataplane.ActionDrop {
		return nil
	}
	ret := dataplane.ReturnSegment(h.inPort, &seg, nil, h.ts.Cache(), false)
	out, err := dataplane.AppendTrailerSegment(rest, &ret)
	if err != nil {
		return nil
	}
	return out
}

// replayChain times the chain's layers on the load's routes and sizes.
// Its token caches are private copies, so the chain's counters and
// ledger are untouched.
func replayChain(c *chain, l *dgLoad) replayOut {
	var out replayOut
	type sample struct {
		fi     int
		pkt    *viper.Packet
		images [][]byte // images[k] arrives at router k; images[chainLen] at the sink
	}
	var samples []sample
	hops := make([][]hopState, len(c.routes))
	for fi, route := range c.routes {
		hops[fi] = make([]hopState, chainLen)
		for k := range hops[fi] {
			var ts *dataplane.TokenState
			for _, p := range c.required[k] {
				ts = ts.WithRequired(p)
			}
			hops[fi][k] = hopState{
				pl:     dataplane.Pipeline{Node: routerName(k), Clock: clock.Wall, Mode: token.Block},
				ts:     ts.WithAuthority(c.auths[k]),
				inPort: c.inPorts[fi][k],
			}
		}
		f := l.flows[fi]
		for j := 0; j < 8; j++ {
			n := int(f.sizes[j])
			data := make([]byte, n)
			copy(data[dgHdrLen:], l.content(fi, uint64(j), n))
			p := &viper.Packet{
				Route:   append([]viper.Segment(nil), route[1:]...),
				Data:    data,
				Trailer: []viper.Segment{{Port: viper.PortLocal, Priority: route[0].Priority}},
			}
			img, err := p.Encode()
			if err != nil {
				continue
			}
			s := sample{fi: fi, pkt: p, images: [][]byte{img}}
			for k := 0; k < chainLen; k++ {
				next := hops[fi][k].hop(append(make([]byte, 0, 2*len(s.images[k])), s.images[k]...))
				if next == nil {
					break
				}
				s.images = append(s.images, append([]byte(nil), next...))
			}
			if len(s.images) == chainLen+1 {
				samples = append(samples, s)
				out.overhead += float64(len(img) - n)
			}
		}
	}
	if len(samples) == 0 {
		return out
	}
	out.overhead /= float64(len(samples))

	buf := make([]byte, 0, 4*viper.MTU)
	out.encodeNs = timeBatches(replayIters, func(i int) {
		buf, _ = samples[i%len(samples)].pkt.EncodeAppend(buf[:0])
	})
	out.decodeNs = timeBatches(replayIters, func(i int) {
		viper.Decode(samples[i%len(samples)].images[chainLen])
	})

	// A hop works on its own copy of the arriving image; the copy is
	// timed alone and subtracted.
	img := func(i int) ([]byte, *hopState) {
		s := samples[i%len(samples)]
		k := (i / len(samples)) % chainLen
		return s.images[k], &hops[s.fi][k]
	}
	withHop := timeBatches(replayIters, func(i int) {
		b, h := img(i)
		h.hop(append(buf[:0], b...))
	})
	copyOnly := timeBatches(replayIters, func(i int) {
		b, _ := img(i)
		buf = append(buf[:0], b...)
	})
	out.hopNs = withHop - copyOnly

	// Token cache check on a hit, as each hop after the first packet.
	tok := c.routes[0][1].PortToken
	cache := hops[0][0].ts.Cache()
	out.checkNs = timeBatches(replayIters*5, func(int) {
		cache.Check(tok, trunkOut, 0, 512, 0, false)
	})
	auth := c.auths[0]
	out.issueNs = timeBatches(issueIters, func(i int) {
		auth.Issue(token.Spec{Account: uint32(1000 + i%dgFlows), Port: trunkOut, ReverseOK: true})
	})
	return out
}
