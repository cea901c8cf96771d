package experiments

import (
	"encoding/binary"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/ethernet"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/viper"
	"repro/internal/vmtp"
)

// sirpentFailover measures how long a Sirpent client is cut off when its
// primary trunk dies: steady transactions, trunk failed at failAt, time
// until the next completed transaction.
func sirpentFailover(useAdvisor bool) sim.Time {
	n := core.New(61)
	n.AddEthernet("net1", linkRate, 5*sim.Microsecond)
	n.AddEthernet("net2", linkRate, 5*sim.Microsecond)
	n.AddHost("hA")
	n.AddHost("hB")
	for _, r := range []string{"R1", "R2", "R3", "R4"} {
		n.AddRouter(r, router.Config{})
	}
	n.Attach("hA", "net1", 1)
	n.Attach("R1", "net1", 1)
	n.Attach("R3", "net1", 1)
	n.Attach("hB", "net2", 1)
	n.Attach("R2", "net2", 2)
	n.Attach("R4", "net2", 2)
	n.Connect("R1", 2, "R2", 1, linkRate, linkProp)
	n.Connect("R3", 2, "R4", 1, linkRate, linkProp)

	client := n.NewEndpoint("hA", 1, 1, vmtp.Config{BaseTimeout: 20 * time.Millisecond, MaxRetries: 1})
	server := n.NewEndpoint("hB", 2, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return data })
	routes, err := n.Routes(directory.Query{From: "hA", To: "hB", Pref: directory.MinHops, Count: 2, Endpoint: 1})
	if err != nil || len(routes) < 2 {
		return -1
	}
	segs := core.SegmentsOf(routes)
	if useAdvisor {
		// §6.3: the client periodically requests route advisories; here
		// the advisory check runs before each transmission attempt.
		client.SetRouteAdvisor(func(s []viper.Segment) bool {
			for i := range routes {
				if len(routes[i].Segments) > 0 && len(s) > 0 && &routes[i].Segments[0] == &s[0] {
					return n.Directory().Advise(&routes[i])
				}
			}
			return true
		})
	}

	const failAt = 200 * sim.Millisecond
	var firstAfter sim.Time = -1
	var call func()
	call = func() {
		if n.Eng.Now() > 2*sim.Second {
			return
		}
		startedAt := n.Eng.Now()
		client.Call(server.ID(), segs, []byte("tick"), func(resp []byte, err error) {
			// Only transactions STARTED after the failure measure
			// recovery; earlier ones may complete from in-flight state.
			if err == nil && startedAt > failAt && firstAfter < 0 {
				firstAfter = n.Eng.Now()
			}
			n.Eng.Schedule(10*sim.Millisecond, call)
		})
	}
	n.Eng.Schedule(0, call)
	n.Eng.At(failAt, func() {
		// Identify which trunk the preferred route uses and kill it.
		via := routes[0].Path[1]
		if via == "R1" {
			n.FailLink("R1", "R2")
		} else {
			n.FailLink("R3", "R4")
		}
	})
	n.RunUntil(3 * sim.Second)
	if firstAfter < 0 {
		return -1
	}
	return firstAfter - failAt
}

// ipReconvergence measures the same outage for the IP baseline: steady
// datagrams, direct trunk failed, recovery once distance-vector routing
// finds the detour.
func ipReconvergence() sim.Time {
	eng := sim.NewEngine(61)
	cfg := ipnet.RouterConfig{DVPeriod: sim.Second}
	r1 := ipnet.NewRouter(eng, "R1", cfg)
	r2 := ipnet.NewRouter(eng, "R2", cfg)
	r3 := ipnet.NewRouter(eng, "R3", cfg)

	link := func(a, b netsim.Node, ap, bp uint8) (pa, pb *netsim.Port, l *netsim.P2PLink) {
		l = netsim.NewP2PLink(eng, linkRate, linkProp)
		pa, pb = l.Attach(a, ap, b, bp)
		return
	}
	p12a, p12b, l12 := link(r1, r2, 1, 1)
	r1.AttachIface(p12a, ipnet.MakeAddr(12, 1))
	r2.AttachIface(p12b, ipnet.MakeAddr(12, 2))
	ipnet.ConnectDV(r1, 1, ipnet.MakeAddr(12, 1), r2, 1, ipnet.MakeAddr(12, 2))

	p13a, p13b, _ := link(r1, r3, 2, 1)
	r1.AttachIface(p13a, ipnet.MakeAddr(13, 1))
	r3.AttachIface(p13b, ipnet.MakeAddr(13, 3))
	ipnet.ConnectDV(r1, 2, ipnet.MakeAddr(13, 1), r3, 1, ipnet.MakeAddr(13, 3))

	p23a, p23b, _ := link(r2, r3, 2, 2)
	r2.AttachIface(p23a, ipnet.MakeAddr(23, 2))
	r3.AttachIface(p23b, ipnet.MakeAddr(23, 3))
	ipnet.ConnectDV(r2, 2, ipnet.MakeAddr(23, 2), r3, 2, ipnet.MakeAddr(23, 3))

	hA := ipnet.NewHost(eng, "hA", ipnet.MakeAddr(1, 10), ipnet.HostConfig{})
	pha, phb, _ := link(hA, r1, 1, 10)
	hA.AttachPort(pha)
	r1.AttachIface(phb, ipnet.MakeAddr(1, 254))
	hA.SetGateway(ipnet.MakeAddr(1, 254), ethernet.Addr{})

	hB := ipnet.NewHost(eng, "hB", ipnet.MakeAddr(2, 10), ipnet.HostConfig{})
	phc, phd, _ := link(hB, r2, 1, 10)
	hB.AttachPort(phc)
	r2.AttachIface(phd, ipnet.MakeAddr(2, 254))
	hB.SetGateway(ipnet.MakeAddr(2, 254), ethernet.Addr{})

	r1.StartDV()
	r2.StartDV()
	r3.StartDV()
	// Let routing converge.
	eng.RunUntil(5 * sim.Second)

	const failAt = 5200 * sim.Millisecond
	var firstAfter sim.Time = -1
	hB.SetHandler(func(src ipnet.Addr, proto uint8, data []byte) {
		// The payload carries the send time; only datagrams sent after
		// the failure measure recovery.
		if len(data) != 8 {
			return
		}
		sentAt := sim.Time(binary.BigEndian.Uint64(data))
		if sentAt > failAt && firstAfter < 0 {
			firstAfter = eng.Now()
		}
	})
	var tick func()
	tick = func() {
		if eng.Now() > 30*sim.Second {
			return
		}
		var payload [8]byte
		binary.BigEndian.PutUint64(payload[:], uint64(eng.Now()))
		hA.Send(hB.Addr(), ipnet.ProtoRaw, payload[:], 0)
		eng.Schedule(10*sim.Millisecond, tick)
	}
	eng.Schedule(0, tick)
	eng.At(failAt, func() { l12.SetDown(true) })
	eng.RunUntil(40 * sim.Second)
	r1.StopDV()
	r2.StopDV()
	r3.StopDV()
	if firstAfter < 0 {
		return -1
	}
	return firstAfter - failAt
}
