package udpnet_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet"
	"repro/internal/trace"
	"repro/internal/udpnet"
	"repro/internal/viper"
)

// twoProcessTopology builds the smallest cross-socket internetwork:
// two livenet networks ("processes"), each one router with a local
// host, the routers peered over real localhost UDP via link 7.
//
//	srcH -1- rA -2- [udp tunnel] -2- rB -3- dstH
//
// Port numbers match what a single-process run connecting rA:2<->rB:2
// directly would use, so return segments record the same ports.
func twoProcessTopology(t *testing.T) (src, dst *livenet.Host, ta, tb *udpnet.Tunnel) {
	t.Helper()

	netA := livenet.NewNetwork()
	t.Cleanup(netA.Stop)
	netB := livenet.NewNetwork()
	t.Cleanup(netB.Stop)

	bA, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bA.Close() })
	bB, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bB.Close() })

	rA := netA.NewRouter("rA")
	src = netA.NewHost("srcH")
	netA.Connect(src, 1, rA, 1)

	rB := netB.NewRouter("rB")
	dst = netB.NewHost("dstH")
	netB.Connect(rB, 3, dst, 1)

	ta, err = bA.Attach(netA, rA, 2, 7, udpnet.WithRemote(bB.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	tb, err = bB.Attach(netB, rB, 2, 7, udpnet.WithRemote(bA.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	return src, dst, ta, tb
}

func waitFor(t *testing.T, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !f() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// crossRoute is the source route from srcH to dstH: own directive,
// rA's tunnel port, rB's host port, local delivery.
func crossRoute() []viper.Segment {
	return []viper.Segment{
		{Port: 1},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: 3, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
}

// TestTunnelRoundTrip drives a request across the socket and a reply
// back along the accumulated return route — the §2.3 claim that the
// foreign transport is one reversible logical hop. The reply's
// arrival proves the far router's trailer surgery recorded the tunnel
// port exactly as a direct link would.
func TestTunnelRoundTrip(t *testing.T) {
	src, dst, ta, tb := twoProcessTopology(t)

	var replied atomic.Uint64
	src.Handle(0, func(d livenet.Delivery) {
		if string(d.Data) == "pong" {
			replied.Add(1)
		}
	})
	dst.Handle(0, func(d livenet.Delivery) {
		if err := dst.Send(d.ReturnRoute, []byte("pong")); err != nil {
			t.Errorf("reply: %v", err)
		}
	})

	if err := src.Send(crossRoute(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reply across the tunnel", func() bool { return replied.Load() == 1 })

	sa, sb := ta.Stats(), tb.Stats()
	if sa.Encapsulated != 1 || sa.Decapsulated != 1 {
		t.Fatalf("tunnel A stats = %+v, want 1 encapsulated + 1 decapsulated", sa)
	}
	if sb.Encapsulated != 1 || sb.Decapsulated != 1 {
		t.Fatalf("tunnel B stats = %+v, want 1 encapsulated + 1 decapsulated", sb)
	}
}

// TestTunnelBurstAtDepth sends a burst of `depth` frames into a tunnel
// built WithDepth(depth) — more than one sendmmsg batch and many
// recvmmsg batches — and checks every frame crosses: no queue-full drop
// at the bridged router (so its link into the tunnel has the tunnel's
// depth, not livenet's default), and exact Encapsulated and
// Decapsulated counts on the two ends.
func TestTunnelBurstAtDepth(t *testing.T) {
	const depth = 128
	netA := livenet.NewNetwork()
	t.Cleanup(netA.Stop)
	netB := livenet.NewNetwork()
	t.Cleanup(netB.Stop)
	bA, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bA.Close() })
	bB, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bB.Close() })

	rA := netA.NewRouter("rA")
	src := netA.NewHost("srcH")
	netA.Connect(src, 1, rA, 1, livenet.WithDepth(depth))
	rB := netB.NewRouter("rB")
	dst := netB.NewHost("dstH")
	netB.Connect(rB, 3, dst, 1, livenet.WithDepth(depth))
	ta, err := bA.Attach(netA, rA, 2, 7, udpnet.WithDepth(depth), udpnet.WithRemote(bB.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := bB.Attach(netB, rB, 2, 7, udpnet.WithDepth(depth), udpnet.WithRemote(bA.Addr()))
	if err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Uint64
	dst.Handle(0, func(livenet.Delivery) { delivered.Add(1) })
	for i := 0; i < depth; i++ {
		if err := src.Send(crossRoute(), []byte(fmt.Sprintf("burst-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the whole burst", func() bool { return delivered.Load() == depth })
	if s := rA.Stats(); s.TotalDrops() != 0 {
		t.Fatalf("bridged router dropped frames: %v", s)
	}
	if sa, sb := ta.Stats(), tb.Stats(); sa.Encapsulated != depth || sb.Decapsulated != depth || sa.Dropped != 0 {
		t.Fatalf("tunnel stats A=%+v B=%+v, want %d encapsulated and decapsulated, none dropped", sa, sb, depth)
	}
}

// TestTunnelFaultHandles checks the Link-parity fault vocabulary: a
// down tunnel discards and counts, restoring it heals, and full loss
// on one side starves delivery while Dropped attributes every frame.
func TestTunnelFaultHandles(t *testing.T) {
	src, dst, ta, _ := twoProcessTopology(t)

	var delivered atomic.Uint64
	dst.Handle(0, func(livenet.Delivery) { delivered.Add(1) })

	ta.SetDown(true)
	if err := src.Send(crossRoute(), []byte("into the void")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "down-tunnel drop", func() bool { return ta.Dropped() == 1 })
	if delivered.Load() != 0 {
		t.Fatal("delivery through a down tunnel")
	}

	ta.SetDown(false)
	if err := src.Send(crossRoute(), []byte("healed")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery after restore", func() bool { return delivered.Load() == 1 })

	ta.SetLossRatio(1.0)
	for i := 0; i < 5; i++ {
		if err := src.Send(crossRoute(), []byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "loss-lottery drops", func() bool { return ta.Dropped() == 6 })
	if got := delivered.Load(); got != 1 {
		t.Fatalf("delivered %d frames through a fully lossy tunnel, want 1", got)
	}
}

// TestBridgeDecodeErrors feeds the socket garbage — short datagrams,
// bad magic, wrong version, an unattached link — and checks each is
// counted at the bridge and none reaches a tunnel.
func TestBridgeDecodeErrors(t *testing.T) {
	b, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	netw := livenet.NewNetwork()
	defer netw.Stop()
	r := netw.NewRouter("r")
	tun, err := b.Attach(netw, r, 2, 9)
	if err != nil {
		t.Fatal(err)
	}

	c, err := net.DialUDP("udp", nil, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	garbage := [][]byte{
		{'S', 'I'},                              // short
		{'N', 'O', 'P', 'E', 1, 1, 0, 9, 0xAA},  // bad magic
		{'S', 'I', 'R', 'P', 99, 1, 0, 9, 0xAA}, // bad version
		{'S', 'I', 'R', 'P', 1, 1, 0, 13, 0xAA}, // unknown link
	}
	for _, g := range garbage {
		if _, err := c.Write(g); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "bridge decode errors", func() bool { return b.DecodeErrors() == uint64(len(garbage)) })

	// Known link, bad type / empty payload: counted at the tunnel.
	if _, err := c.Write([]byte{'S', 'I', 'R', 'P', 1, 0x7F, 0, 9, 0xAA}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{'S', 'I', 'R', 'P', 1, 1, 0, 9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tunnel decode errors", func() bool { return tun.Stats().DecodeErrors == 2 })
	if s := tun.Stats(); s.Decapsulated != 0 {
		t.Fatalf("garbage decapsulated: %+v", s)
	}
}

// TestAttachDuplicateLink pins the demux invariant: linkID is the
// demux key, so attaching it twice on one bridge must fail.
func TestAttachDuplicateLink(t *testing.T) {
	b, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	netw := livenet.NewNetwork()
	defer netw.Stop()
	r := netw.NewRouter("r")
	if _, err := b.Attach(netw, r, 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(netw, r, 3, 4); err == nil {
		t.Fatal("duplicate linkID attached")
	}
}

// TestSendWithoutRemote checks that frames sent before the peer
// address is known surface as send errors, and that SetRemote heals
// the tunnel without reattaching.
func TestSendWithoutRemote(t *testing.T) {
	netA := livenet.NewNetwork()
	defer netA.Stop()
	netB := livenet.NewNetwork()
	defer netB.Stop()

	bA, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bA.Close()
	bB, err := udpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bB.Close()

	rA := netA.NewRouter("rA")
	src := netA.NewHost("srcH")
	netA.Connect(src, 1, rA, 1)
	rB := netB.NewRouter("rB")
	dst := netB.NewHost("dstH")
	netB.Connect(rB, 3, dst, 1)

	ta, err := bA.Attach(netA, rA, 2, 7) // remote unknown
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bB.Attach(netB, rB, 2, 7, udpnet.WithRemote(bA.Addr())); err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Uint64
	dst.Handle(0, func(livenet.Delivery) { delivered.Add(1) })

	if err := src.Send(crossRoute(), []byte("undeliverable")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "send error before discovery", func() bool { return ta.Stats().SendErrors == 1 })

	ta.SetRemote(bB.Addr())
	if err := src.Send(crossRoute(), []byte("discovered")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery after SetRemote", func() bool { return delivered.Load() == 1 })
}

// TestTracePropagationUnderLoss is the impairment contract for
// cluster tracing: with seeded loss on the forward tunnel and an
// application-level resend loop riding over it, every frame that does
// get through resumes the sender's trace ID on the far substrate —
// and no record leaks on either side. Specifically, at quiesce:
// finished == begun + resumed on both tracers, the receiver's
// "wire:<link>" span count equals its TracedRecv exactly, and every
// wire span's trace ID carries the sender's identity bits.
func TestTracePropagationUnderLoss(t *testing.T) {
	spansA, spansB := trace.NewSpans(64), trace.NewSpans(64)
	tracerA := trace.NewClusterTracer("A", 1<<48, 1, spansA, nil)
	tracerB := trace.NewClusterTracer("B", 2<<48, 1, spansB, nil)
	netA := livenet.NewNetwork(livenet.WithTracer(tracerA))
	t.Cleanup(netA.Stop)
	netB := livenet.NewNetwork(livenet.WithTracer(tracerB))
	t.Cleanup(netB.Stop)

	bA, err := udpnet.Listen("127.0.0.1:0", udpnet.WithTelemetry("A", spansA))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bA.Close() })
	bB, err := udpnet.Listen("127.0.0.1:0", udpnet.WithTelemetry("B", spansB))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bB.Close() })

	rA := netA.NewRouter("rA")
	src := netA.NewHost("srcH")
	netA.Connect(src, 1, rA, 1)
	rB := netB.NewRouter("rB")
	dst := netB.NewHost("dstH")
	netB.Connect(rB, 3, dst, 1)

	ta, err := bA.Attach(netA, rA, 2, 7, udpnet.WithRemote(bB.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := bB.Attach(netB, rB, 2, 7, udpnet.WithRemote(bA.Addr()))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := make(map[string]bool)
	dst.Handle(0, func(d livenet.Delivery) {
		mu.Lock()
		seen[string(d.Data)] = true
		mu.Unlock()
	})

	// Lossy forward path, reliable by retry: resend each message until
	// the receiving substrate has it. The resend loop is the impairment
	// — duplicates of the same payload carry distinct trace IDs (each
	// send is its own traced packet), so nothing about tracing may
	// assume at-most-once delivery.
	ta.SetLossRatio(0.5)
	const msgs = 10
	for i := 0; i < msgs; i++ {
		payload := []byte(fmt.Sprintf("m%02d", i))
		arrived := func() bool {
			mu.Lock()
			defer mu.Unlock()
			return seen[string(payload)]
		}
		deadline := time.Now().Add(5 * time.Second)
		for !arrived() {
			if time.Now().After(deadline) {
				t.Fatalf("message %d never crossed the lossy tunnel", i)
			}
			if err := src.Send(crossRoute(), payload); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if ta.Dropped() == 0 {
		t.Fatal("loss ratio 0.5 dropped nothing — impairment not exercised")
	}

	// Quiesce: both tracers must account for every record they opened.
	waitFor(t, "tracer quiesce", func() bool {
		ba, ra, fa := tracerA.Counts()
		bb, rb, fb := tracerB.Counts()
		return fa == ba+ra && fb == bb+rb && fb > 0
	})
	begunA, _, _ := tracerA.Counts()
	_, resumedB, _ := tracerB.Counts()
	if begunA == 0 || resumedB == 0 {
		t.Fatalf("tracing never engaged: begunA=%d resumedB=%d", begunA, resumedB)
	}

	// The receiver's wire spans reconcile exactly with its traced
	// decapsulations, and every one names a trace the sender originated.
	snap := spansB.Snapshot()
	var wireCount int64
	for _, st := range snap.Stages {
		if st.Stage == "wire:7" {
			wireCount = st.Count
		}
	}
	tracedRecv := tb.Stats().TracedRecv
	if wireCount == 0 || uint64(wireCount) != tracedRecv {
		t.Fatalf("wire spans = %d, traced decapsulations = %d; want equal and nonzero", wireCount, tracedRecv)
	}
	for _, sp := range snap.Recent {
		if sp.Stage != "wire:7" {
			continue
		}
		if sp.Trace>>48 != 1 {
			t.Fatalf("wire span %x did not originate at sender A (identity bits %d)", sp.Trace, sp.Trace>>48)
		}
	}
}
