package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/vmtp"
)

// buildCampus assembles the paper's style of internetwork:
//
//	hA, hC on net1 --- R1 ===trunk-fast(insecure)=== R2 --- net2 with hB
//	              \--- R3 ===trunk-slow(secure)===== R4 ---/
func buildCampus(seed int64, rcfg router.Config) *Internetwork {
	n := New(seed)
	n.AddEthernet("net1", 10e6, 5*sim.Microsecond)
	n.AddEthernet("net2", 10e6, 5*sim.Microsecond)
	n.AddHost("hA")
	n.AddHost("hB")
	n.AddHost("hC")
	n.AddRouter("R1", rcfg)
	n.AddRouter("R2", rcfg)
	n.AddRouter("R3", rcfg)
	n.AddRouter("R4", rcfg)
	n.Attach("hA", "net1", 1)
	n.Attach("hC", "net1", 1)
	n.Attach("R1", "net1", 1)
	n.Attach("R3", "net1", 1)
	n.Attach("hB", "net2", 1)
	n.Attach("R2", "net2", 2)
	n.Attach("R4", "net2", 2)
	n.Connect("R1", 2, "R2", 1, 45e6, 2*sim.Millisecond, Insecure(), Cost(5))
	n.Connect("R3", 2, "R4", 1, 1.5e6, 2*sim.Millisecond, Secure(), Cost(1))
	return n
}

func TestFullStackRequestResponse(t *testing.T) {
	n := buildCampus(1, router.Config{})
	client := n.NewEndpoint("hA", 0xAAA, 1, vmtp.Config{})
	server := n.NewEndpoint("hB", 0xBBB, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte {
		return append([]byte("re: "), data...)
	})

	routes, err := n.Routes(directory.Query{From: "hA", To: "hB", Pref: directory.MinDelay, Count: 2, Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 2 {
		t.Fatalf("%d routes", len(routes))
	}

	var got []byte
	n.Eng.Schedule(0, func() {
		client.Call(server.ID(), SegmentsOf(routes), []byte("hello"), func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			got = resp
		})
	})
	n.Run()
	if !bytes.Equal(got, []byte("re: hello")) {
		t.Fatalf("resp = %q", got)
	}
	// The request went via the fast trunk (MinDelay): R1 and R2 saw it.
	if n.Router("R1").Stats.Arrivals == 0 || n.Router("R2").Stats.Arrivals == 0 {
		t.Error("fast-path routers saw no traffic")
	}
	if n.Router("R3").Stats.Arrivals != 0 {
		t.Error("slow-path router saw traffic on a MinDelay route")
	}
}

func TestSecureRouteFullStack(t *testing.T) {
	n := buildCampus(2, router.Config{})
	client := n.NewEndpoint("hA", 1, 1, vmtp.Config{})
	server := n.NewEndpoint("hB", 2, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return []byte("secret") })
	routes, err := n.Routes(directory.Query{From: "hA", To: "hB", Pref: directory.SecureOnly, Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !routes[0].Secure {
		t.Fatal("route not secure")
	}
	ok := false
	n.Eng.Schedule(0, func() {
		client.Call(server.ID(), SegmentsOf(routes), []byte("q"), func(resp []byte, err error) {
			ok = err == nil
		})
	})
	n.Run()
	if !ok {
		t.Fatal("secure call failed")
	}
	if n.Router("R1").Stats.Arrivals != 0 {
		t.Error("secure traffic crossed the insecure trunk")
	}
	if n.Router("R3").Stats.Arrivals == 0 {
		t.Error("secure trunk unused")
	}
}

func TestTokensEndToEndViaDirectory(t *testing.T) {
	n := buildCampus(3, router.Config{})
	n.GuardRouter("R1", []byte("r1-secret"), 2)

	client := n.NewEndpoint("hA", 1, 1, vmtp.Config{})
	server := n.NewEndpoint("hB", 2, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return []byte("ok") })

	// Route WITHOUT directory tokens is refused at R1: build it by
	// stripping tokens.
	routes, err := n.Routes(directory.Query{From: "hA", To: "hB", Pref: directory.MinDelay, Endpoint: 1, Account: 9})
	if err != nil {
		t.Fatal(err)
	}
	stripped := make([][]byte, len(routes[0].Segments))
	for i := range routes[0].Segments {
		stripped[i] = routes[0].Segments[i].PortToken
		routes[0].Segments[i].PortToken = nil
	}
	gotBare := false
	n.Eng.Schedule(0, func() {
		client.Call(server.ID(), SegmentsOf(routes[:1]), []byte("bare"), func(resp []byte, err error) {
			gotBare = err == nil
		})
	})
	n.RunUntil(2 * sim.Second)
	if gotBare {
		t.Fatal("token-guarded router forwarded a bare packet")
	}
	if n.Router("R1").Stats.DropCount(router.DropTokenDenied) == 0 {
		t.Fatal("no token denial recorded")
	}

	// Restore the directory-issued tokens: the call succeeds and the
	// router accounts usage to the client's account.
	for i := range routes[0].Segments {
		routes[0].Segments[i].PortToken = stripped[i]
	}
	gotTok := false
	n.Eng.Schedule(0, func() {
		client.Call(server.ID(), SegmentsOf(routes[:1]), []byte("tokenized"), func(resp []byte, err error) {
			gotTok = err == nil
		})
	})
	n.RunUntil(4 * sim.Second)
	if !gotTok {
		t.Fatal("tokenized call failed")
	}
	totals := n.Router("R1").TokenCache().AccountTotals()
	if totals[9].Packets == 0 {
		t.Fatalf("no accounting for account 9: %v", totals)
	}
}

func TestFailoverAcrossTrunksFullStack(t *testing.T) {
	n := buildCampus(4, router.Config{})
	client := n.NewEndpoint("hA", 1, 1, vmtp.Config{BaseTimeout: 20 * time.Millisecond, MaxRetries: 1})
	server := n.NewEndpoint("hB", 2, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return []byte("alive") })

	routes, err := n.Routes(directory.Query{From: "hA", To: "hB", Pref: directory.MinDelay, Count: 2, Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.FailLink("R1", "R2") // primary trunk dies before the call
	ok := false
	n.Eng.Schedule(0, func() {
		client.Call(server.ID(), SegmentsOf(routes), []byte("anyone?"), func(resp []byte, err error) {
			ok = err == nil
		})
	})
	n.RunUntil(5 * sim.Second)
	if !ok {
		t.Fatal("failover across trunks failed")
	}
	if client.Stats.RouteFailovers != 1 {
		t.Fatalf("RouteFailovers = %d", client.Stats.RouteFailovers)
	}
	// The directory, told of the failure, now advises the old route
	// stale and offers only the secure trunk.
	if n.Directory().Advise(&routes[0]) {
		t.Fatal("directory advises failed route healthy")
	}
	fresh, err := n.Routes(directory.Query{From: "hA", To: "hB", Pref: directory.MinDelay, Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].Path[1] != "R3" {
		t.Fatalf("fresh route = %v, want detour", fresh[0].Path)
	}
}

func TestNamedLookupFullStack(t *testing.T) {
	n := buildCampus(5, router.Config{})
	if err := n.Register("alpha.cs.stanford.edu", "hA"); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("beta.ee.stanford.edu", "hB"); err != nil {
		t.Fatal(err)
	}
	routes, err := n.Routes(directory.Query{From: "alpha.cs.stanford.edu", To: "beta.ee.stanford.edu", Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	if routes[0].Path[0] != "hA" {
		t.Fatalf("path = %v", routes[0].Path)
	}
}

func TestTwoHostsOneEthernetNoRouters(t *testing.T) {
	// Purely local communication: zero routers traversed — the dominant
	// case in the paper's locality model.
	n := New(6)
	n.AddEthernet("lan", 10e6, 5*sim.Microsecond)
	n.AddHost("a")
	n.AddHost("b")
	n.Attach("a", "lan", 1)
	n.Attach("b", "lan", 1)
	routes, err := n.Routes(directory.Query{From: "a", To: "b", Endpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	if routes[0].Hops != 0 {
		t.Fatalf("Hops = %d, want 0", routes[0].Hops)
	}
	client := n.NewEndpoint("a", 1, 1, vmtp.Config{})
	server := n.NewEndpoint("b", 2, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return []byte("hi neighbor") })
	var got []byte
	n.Eng.Schedule(0, func() {
		client.Call(server.ID(), SegmentsOf(routes), []byte("hi"), func(resp []byte, err error) {
			if err == nil {
				got = resp
			}
		})
	})
	n.Run()
	if !bytes.Equal(got, []byte("hi neighbor")) {
		t.Fatalf("resp = %q", got)
	}
}

func TestConcurrentCallsManyClients(t *testing.T) {
	n := buildCampus(7, router.Config{})
	server := n.NewEndpoint("hB", 0xB0B, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return data })

	routesA, err := n.Routes(directory.Query{From: "hA", To: "hB", Endpoint: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	routesC, err := n.Routes(directory.Query{From: "hC", To: "hB", Endpoint: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	ca := n.NewEndpoint("hA", 0xA, 1, vmtp.Config{})
	cc := n.NewEndpoint("hC", 0xC, 1, vmtp.Config{})
	done := 0
	for i := 0; i < 20; i++ {
		i := i
		n.Eng.Schedule(sim.Time(i)*sim.Millisecond, func() {
			ca.Call(server.ID(), SegmentsOf(routesA), []byte{byte(i)}, func(resp []byte, err error) {
				if err == nil && len(resp) == 1 && resp[0] == byte(i) {
					done++
				}
			})
			cc.Call(server.ID(), SegmentsOf(routesC), []byte{byte(100 + i)}, func(resp []byte, err error) {
				if err == nil && len(resp) == 1 && resp[0] == byte(100+i) {
					done++
				}
			})
		})
	}
	n.RunUntil(10 * sim.Second)
	if done != 40 {
		t.Fatalf("completed %d/40 transactions", done)
	}
}

func TestStringer(t *testing.T) {
	n := buildCampus(8, router.Config{})
	if s := n.String(); s == "" {
		t.Fatal("empty String")
	}
}
