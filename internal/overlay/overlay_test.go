package overlay

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/viper"
	"repro/internal/vmtp"
)

// fixture: hA --p2p-- RA ==[tunnel over IP core]== RB --p2p-- hB
//
// The IP core is gwA --p2p-- ipR --p2p-- gwB with static routes.
type fixture struct {
	eng      *sim.Engine
	hA, hB   *router.Host
	ra, rb   *router.Router
	tun      *Tunnel
	coreLink *netsim.P2PLink // gwA <-> ipR, for loss/MTU injection
	ipR      *ipnet.Router
}

func newFixture(ipMTU int) *fixture {
	f := &fixture{eng: sim.NewEngine(17)}
	f.hA = router.NewHost(f.eng, "hA")
	f.hB = router.NewHost(f.eng, "hB")
	f.ra = router.New(f.eng, "RA", router.Config{})
	f.rb = router.New(f.eng, "RB", router.Config{})

	l1 := netsim.NewP2PLink(f.eng, 10e6, 50*sim.Microsecond)
	pa, pb := l1.Attach(f.hA, 1, f.ra, 1)
	f.hA.AttachPort(pa)
	f.ra.AttachPort(pb)
	l2 := netsim.NewP2PLink(f.eng, 10e6, 50*sim.Microsecond)
	qa, qb := l2.Attach(f.rb, 1, f.hB, 1)
	f.rb.AttachPort(qa)
	f.hB.AttachPort(qb)

	// IP core.
	gwA := ipnet.NewHost(f.eng, "gwA", ipnet.MakeAddr(1, 1), ipnet.HostConfig{})
	gwB := ipnet.NewHost(f.eng, "gwB", ipnet.MakeAddr(2, 1), ipnet.HostConfig{})
	f.ipR = ipnet.NewRouter(f.eng, "ipR", ipnet.RouterConfig{})
	la := netsim.NewP2PLink(f.eng, 10e6, 200*sim.Microsecond)
	xa, xb := la.Attach(gwA, 1, f.ipR, 1)
	gwA.AttachPort(xa)
	f.ipR.AttachIface(xb, ipnet.MakeAddr(1, 254))
	gwA.SetGateway(ipnet.MakeAddr(1, 254), ethernet.Addr{})
	lb := netsim.NewP2PLink(f.eng, 10e6, 200*sim.Microsecond)
	ya, yb := lb.Attach(f.ipR, 2, gwB, 1)
	f.ipR.AttachIface(ya, ipnet.MakeAddr(2, 254))
	gwB.AttachPort(yb)
	gwB.SetGateway(ipnet.MakeAddr(2, 254), ethernet.Addr{})
	f.coreLink = la
	if ipMTU > 0 {
		// MTU on the second hop only, so fragmentation happens at the
		// IP router (not at the sending gateway host).
		lb.AB.SetMTU(ipMTU)
		lb.BA.SetMTU(ipMTU)
	}

	f.tun = New(f.eng, f.ra, 9, gwA, f.rb, 9, gwB, Config{})
	return f
}

// route hA -> hB: host directive, RA's tunnel port, RB's exit port, host
// endpoint.
func (f *fixture) route(endpoint uint8) []viper.Segment {
	return []viper.Segment{
		{Port: 1, Flags: viper.FlagVNT},
		{Port: 9, Flags: viper.FlagVNT}, // RA: into the tunnel (logical hop)
		{Port: 1, Flags: viper.FlagVNT}, // RB: out to hB
		{Port: endpoint},
	}
}

func TestTunnelRequestResponse(t *testing.T) {
	f := newFixture(0)
	var got *router.Delivery
	f.hB.Handle(0, func(d *router.Delivery) {
		got = d
		f.hB.Send(d.ReturnRoute, []byte("back across the internet"))
	})
	var reply *router.Delivery
	f.hA.Handle(0, func(d *router.Delivery) { reply = d })

	f.eng.Schedule(0, func() {
		if err := f.hA.Send(f.route(0), []byte("across the internet")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	f.eng.Run()

	if got == nil {
		t.Fatal("packet never crossed the tunnel")
	}
	if !bytes.Equal(got.Data, []byte("across the internet")) {
		t.Fatalf("data = %q", got.Data)
	}
	if reply == nil {
		t.Fatal("reply never crossed back — tunnel hop not reversible")
	}
	if f.tun.A.Stats.Encapsulated != 1 || f.tun.B.Stats.Encapsulated != 1 {
		t.Fatalf("encap counts: %d/%d", f.tun.A.Stats.Encapsulated, f.tun.B.Stats.Encapsulated)
	}
	if f.tun.A.Stats.Decapsulated != 1 || f.tun.B.Stats.Decapsulated != 1 {
		t.Fatalf("decap counts: %d/%d", f.tun.A.Stats.Decapsulated, f.tun.B.Stats.Decapsulated)
	}
	// The return route's tunnel segment names RB's tunnel port.
	found := false
	for _, s := range got.ReturnRoute {
		if s.Port == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("return route lacks the tunnel hop: %+v", got.ReturnRoute)
	}
}

func TestTunnelFragmentationTransparent(t *testing.T) {
	// A 1400-byte VIPER packet over an IP core with 576-byte MTU: the
	// IP substrate fragments and reassembles; the Sirpent layer never
	// notices (§2.3 + §4.3: the encapsulation layer delivers the
	// minimum transfer unit transparently, as PUP did).
	f := newFixture(576)
	var got *router.Delivery
	f.hB.Handle(0, func(d *router.Delivery) { got = d })
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	f.eng.Schedule(0, func() { f.hA.Send(f.route(0), payload) })
	f.eng.Run()
	if got == nil {
		t.Fatal("fragmented tunnel packet lost")
	}
	if !bytes.Equal(got.Data, payload) {
		t.Fatal("payload corrupted across fragmentation")
	}
	if f.ipR.Stats.Fragmented == 0 {
		t.Fatal("IP core never fragmented — MTU not exercised")
	}
	if got.Truncated {
		t.Fatal("Sirpent saw truncation despite IP fragmentation")
	}
}

func TestTunnelVMTPTransaction(t *testing.T) {
	f := newFixture(0)
	ckA, ckB := clock.New(f.eng, 0, 0), clock.New(f.eng, 0, 0)
	client := vmtp.NewEndpoint(f.eng, f.hA, ckA, 0xA, 1, vmtp.Config{})
	server := vmtp.NewEndpoint(f.eng, f.hB, ckB, 0xB, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte {
		return append([]byte("ip-carried: "), data...)
	})
	var got []byte
	f.eng.Schedule(0, func() {
		client.Call(server.ID(), [][]viper.Segment{f.route(1)}, []byte("q"), func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			got = resp
		})
	})
	f.eng.Run()
	if !bytes.Equal(got, []byte("ip-carried: q")) {
		t.Fatalf("resp = %q", got)
	}
}

func TestTunnelSurvivesCoreLossViaTransport(t *testing.T) {
	f := newFixture(0)
	f.coreLink.AB.SetLossRate(0.3)
	ckA, ckB := clock.New(f.eng, 0, 0), clock.New(f.eng, 0, 0)
	client := vmtp.NewEndpoint(f.eng, f.hA, ckA, 0xA, 1, vmtp.Config{BaseTimeout: 30 * time.Millisecond, MaxRetries: 10})
	server := vmtp.NewEndpoint(f.eng, f.hB, ckB, 0xB, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return data })
	ok := false
	f.eng.Schedule(0, func() {
		client.Call(server.ID(), [][]viper.Segment{f.route(1)}, make([]byte, 4000), func(resp []byte, err error) {
			ok = err == nil
		})
	})
	f.eng.RunUntil(30 * sim.Second)
	if !ok {
		t.Fatal("transaction failed despite transport retransmission")
	}
	if client.Stats.Retransmissions+client.Stats.SelectiveResends == 0 {
		t.Fatal("no retransmissions despite 30% core loss")
	}
}

func TestTunnelRejectsNonViper(t *testing.T) {
	f := newFixture(0)
	pkt := &ipnet.Packet{Header: ipnet.Header{TTL: 4}}
	if _, err := f.tun.A.Transmit(f.tun.A.local, pkt, nil, 0); err == nil {
		t.Fatal("tunnel accepted a non-VIPER payload")
	}
	if _, err := f.tun.A.Transmit(f.tun.A.local, viper.NewPacket([]viper.Segment{{Port: 1}}, nil), &ethernet.Header{}, 0); err == nil {
		t.Fatal("tunnel accepted a network header")
	}
}

func TestTunnelDecodeErrorCounted(t *testing.T) {
	f := newFixture(0)
	f.tun.B.receive(ipnet.MakeAddr(1, 1), ProtoVIPER, []byte{1, 2, 3})
	if f.tun.B.Stats.DecodeErrors != 1 {
		t.Fatalf("DecodeErrors = %d", f.tun.B.Stats.DecodeErrors)
	}
	// Non-VIPER protocols are ignored.
	f.tun.B.receive(ipnet.MakeAddr(1, 1), ipnet.ProtoRaw, []byte{1})
	if f.tun.B.Stats.Decapsulated != 0 {
		t.Fatal("non-VIPER protocol decapsulated")
	}
}
