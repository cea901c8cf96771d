package core

import (
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/vmtp"
)

func TestLinkFailRestoreCycle(t *testing.T) {
	n := buildCampus(11, router.Config{})
	q := directory.Query{From: "hA", To: "hB", Pref: directory.MinDelay, Endpoint: 1}
	r1, err := n.Routes(q)
	if err != nil {
		t.Fatal(err)
	}
	primary := r1[0].Path[1]
	n.FailLink(primary, pairOf(primary))
	r2, err := n.Routes(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2[0].Path[1] == primary {
		t.Fatal("route still uses failed trunk")
	}
	n.RestoreLink(primary, pairOf(primary))
	r3, err := n.Routes(q)
	if err != nil {
		t.Fatal(err)
	}
	if r3[0].Path[1] != primary {
		t.Fatalf("route did not return to the primary after restore: %v", r3[0].Path)
	}
	if _, ok := n.Link(primary, pairOf(primary)); !ok {
		t.Fatal("Link lookup failed")
	}
}

func pairOf(r string) string {
	if r == "R1" {
		return "R2"
	}
	return "R4"
}

func TestAccessors(t *testing.T) {
	n := buildCampus(12, router.Config{})
	if n.Host("hA") == nil || n.Router("R1") == nil {
		t.Fatal("lookup failed")
	}
	if n.HostClock("hA") == nil {
		t.Fatal("no host clock")
	}
	if n.Graph() == nil || n.Directory() == nil {
		t.Fatal("no graph/directory")
	}
	n.RunFor(sim.Millisecond)
	if n.Eng.Now() != sim.Millisecond {
		t.Fatalf("RunFor landed at %v", n.Eng.Now())
	}
}

func TestMTUOptionAppliesToMediumAndRoutes(t *testing.T) {
	n := New(13)
	n.AddHost("a")
	n.AddHost("b")
	n.AddRouter("R", router.Config{})
	n.Connect("a", 1, "R", 1, 10e6, 0)
	n.Connect("R", 2, "b", 1, 10e6, 0, MTU(600))
	l, _ := n.Link("R", "b")
	if l.AB.MTU() != 600 {
		t.Fatalf("medium MTU = %d", l.AB.MTU())
	}
	routes, err := n.Routes(directory.Query{From: "a", To: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if routes[0].MTU != 600 {
		t.Fatalf("route MTU = %d", routes[0].MTU)
	}
}

// TestRouterRebootSoftState verifies §2.2's soft-state claim end to end:
// a router crash discards its token cache, queues and rate limits, and
// traffic recovers without any reconfiguration — tokens re-verify on
// demand and the transport retransmits what the crash ate.
func TestRouterRebootSoftState(t *testing.T) {
	n := buildCampus(14, router.Config{})
	n.GuardRouter("R1", []byte("k"), 2)
	client := n.NewEndpoint("hA", 1, 1, vmtp.Config{BaseTimeout: 20 * time.Millisecond, MaxRetries: 5})
	server := n.NewEndpoint("hB", 2, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return data })
	routes, err := n.Routes(directory.Query{From: "hA", To: "hB", Pref: directory.MinDelay, Endpoint: 1, Account: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	call := func() {
		client.Call(server.ID(), SegmentsOf(routes[:1]), []byte("x"), func(resp []byte, err error) {
			if err == nil {
				done++
			}
		})
	}
	n.Eng.Schedule(0, call)
	n.RunFor(sim.Second)
	if done != 1 {
		t.Fatal("pre-crash call failed")
	}
	if n.Router("R1").TokenCache().Len() == 0 {
		t.Fatal("token cache empty before crash")
	}
	n.Router("R1").Reboot()
	if n.Router("R1").TokenCache().Len() != 0 {
		t.Fatal("Reboot did not flush the token cache")
	}
	n.Eng.Schedule(0, call)
	n.RunFor(2 * sim.Second)
	if done != 2 {
		t.Fatal("post-crash call failed: soft state did not rebuild")
	}
	if n.Router("R1").TokenCache().Verifies < 2 {
		t.Fatalf("token not re-verified after reboot: %d verifies", n.Router("R1").TokenCache().Verifies)
	}
}

// TestMultiHomedHost reproduces §4.1/§2.2's multi-homing argument: a
// VMTP entity on a host with two interfaces stays reachable when one
// interface's network fails, because the entity identifier is
// independent of any network address — the client just uses a route via
// the other interface. (The paper contrasts this with TCP, which binds
// connections to a host interface address.)
func TestMultiHomedHost(t *testing.T) {
	n := New(15)
	n.AddEthernet("netA", 10e6, 5*sim.Microsecond)
	n.AddHost("client")
	n.AddHost("server")
	n.AddRouter("R1", router.Config{})
	n.AddRouter("R2", router.Config{})
	n.Attach("client", "netA", 1)
	n.Attach("R1", "netA", 1)
	n.Attach("R2", "netA", 1)
	// The server is multi-homed: interface 1 via R1, interface 2 via R2.
	n.Connect("R1", 2, "server", 1, 10e6, 100*sim.Microsecond)
	n.Connect("R2", 2, "server", 2, 10e6, 100*sim.Microsecond)

	client := n.NewEndpoint("client", 0xC, 1, vmtp.Config{BaseTimeout: 10 * time.Millisecond, MaxRetries: 1})
	server := n.NewEndpoint("server", 0x5, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return []byte("still here") })

	routes, err := n.Routes(directory.Query{From: "client", To: "server", Count: 2, Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) < 2 {
		t.Fatalf("want 2 routes (one per server interface), got %d", len(routes))
	}
	// Kill the interface the preferred route lands on.
	n.FailLink(routes[0].Path[1], "server")
	ok := false
	n.Eng.Schedule(0, func() {
		client.Call(server.ID(), SegmentsOf(routes), []byte("ping"), func(resp []byte, err error) {
			ok = err == nil
		})
	})
	n.RunUntil(5 * sim.Second)
	if !ok {
		t.Fatal("multi-homed server unreachable after one interface failed")
	}
	if client.Stats.RouteFailovers != 1 {
		t.Fatalf("RouteFailovers = %d", client.Stats.RouteFailovers)
	}
}

// TestEntityMigration reproduces §4.1: "the network-independent
// addressing in VMTP is used to support process migration". The server
// entity moves to a different host; the client re-queries routes to the
// new location and keeps using the SAME 64-bit entity identifier.
func TestEntityMigration(t *testing.T) {
	n := buildCampus(16, router.Config{})
	const entityID = 0x5E12
	client := n.NewEndpoint("hA", 0xC, 1, vmtp.Config{})
	serve := func(host string) *vmtp.Endpoint {
		ep := n.NewEndpoint(host, entityID, 1, vmtp.Config{})
		ep.SetHandler(func(from uint64, data []byte) []byte {
			return []byte("served from " + host)
		})
		return ep
	}
	serve("hB")
	routesB, err := n.Routes(directory.Query{From: "hA", To: "hB", Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got1 []byte
	n.Eng.Schedule(0, func() {
		client.Call(entityID, SegmentsOf(routesB), []byte("q"), func(resp []byte, err error) { got1 = resp })
	})
	n.RunFor(sim.Second)
	if string(got1) != "served from hB" {
		t.Fatalf("pre-migration response %q", got1)
	}

	// Migrate: the entity re-registers on hC; the client re-resolves.
	serve("hC")
	routesC, err := n.Routes(directory.Query{From: "hA", To: "hC", Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got2 []byte
	n.Eng.Schedule(0, func() {
		client.Call(entityID, SegmentsOf(routesC), []byte("q"), func(resp []byte, err error) { got2 = resp })
	})
	n.RunFor(sim.Second)
	if string(got2) != "served from hC" {
		t.Fatalf("post-migration response %q", got2)
	}
}
