package gateway

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
	"repro/internal/vmtp"
)

// mesh is a token-guarded livenet chain with a gateway host at each
// end: the shape of the sirpentd gateway role, in-process.
type mesh struct {
	net     *livenet.Network
	inHost  *livenet.Host
	egHost  *livenet.Host
	routers []*livenet.Router
	trunks  []*livenet.Link // trunk link handles, in chain order
	route   []viper.Segment // ingress host -> egress host, ReverseOK tokens
	col     *ledger.Collector
}

const testAccount = 7001

// buildMesh wires ingress—r0—…—r(h-1)—egress with every trunk and the
// egress port token-guarded, exactly like the daemon backbone.
func buildMesh(t *testing.T, hops int) *mesh {
	t.Helper()
	col := ledger.NewCollector(ledger.New())
	nw := livenet.NewNetwork(livenet.WithLedgerCollector(col))
	t.Cleanup(nw.Stop)

	m := &mesh{net: nw, col: col}
	for i := 0; i < hops; i++ {
		m.routers = append(m.routers, nw.NewRouter(fmt.Sprintf("r%d", i)))
	}
	m.inHost = nw.NewHost("ingress")
	m.egHost = nw.NewHost("egress")
	nw.Connect(m.inHost, 1, m.routers[0], 1, livenet.WithDepth(64))
	for i := 0; i < hops-1; i++ {
		m.trunks = append(m.trunks,
			nw.Connect(m.routers[i], 100, m.routers[i+1], 1, livenet.WithDepth(64)))
	}
	nw.Connect(m.routers[hops-1], 2, m.egHost, 1, livenet.WithDepth(64))

	auth := token.NewAuthority([]byte("gateway-test-region"))
	for _, r := range m.routers {
		r.SetTokenAuthority(auth)
	}
	for i := 0; i < hops-1; i++ {
		m.routers[i].RequireToken(100)
	}
	m.routers[hops-1].RequireToken(2)

	m.route = []viper.Segment{{Port: 1}}
	for i := 0; i < hops-1; i++ {
		m.route = append(m.route, viper.Segment{
			Port: 100, Flags: viper.FlagVNT,
			PortToken: auth.Issue(token.Spec{Account: testAccount, Port: 100, ReverseOK: true}),
		})
	}
	m.route = append(m.route,
		viper.Segment{
			Port: 2, Flags: viper.FlagVNT,
			PortToken: auth.Issue(token.Spec{Account: testAccount, Port: 2, ReverseOK: true}),
		},
		viper.Segment{Port: viper.PortLocal},
	)
	return m
}

func (m *mesh) counters() stats.Counters {
	var c stats.Counters
	for _, r := range m.routers {
		s := r.Stats()
		c.TokenAuthorized += s.TokenAuthorized
	}
	return c
}

// reconcile asserts the gateway's ledger invariant: every stream
// packet billed matches a token authorization on the forwarding plane.
func (m *mesh) reconcile(t *testing.T) {
	t.Helper()
	m.col.Collect()
	if problems := ledger.Reconcile("gateway", m.col.Ledger(), m.counters()); len(problems) != 0 {
		t.Fatalf("ledger reconciliation failed: %v", problems)
	}
	if m.counters().TokenAuthorized == 0 {
		t.Fatal("no token-authorized packets: gateway traffic was not billed")
	}
}

// gatewayPair starts an egress and a SOCKS-serving ingress over the
// mesh with fast-retransmit RT tuning for test latencies.
func gatewayPair(t *testing.T, m *mesh, cfg Config) (*Ingress, *Egress) {
	t.Helper()
	rt := cfg.RT
	if rt.BaseTimeout == 0 {
		rt.BaseTimeout = 30 * time.Millisecond
	}
	if rt.CallTimeout == 0 {
		rt.CallTimeout = 20 * time.Second
	}
	egCfg := cfg
	egCfg.RT = rt
	egCfg.Entity = 0xE6
	eg := NewEgress(m.egHost, 0, egCfg)
	t.Cleanup(eg.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inCfg := cfg
	inCfg.RT = rt
	inCfg.Entity = 0x16
	inCfg.Peer = 0xE6
	inCfg.Route = m.route
	in := NewIngress(ln, m.inHost, 0, inCfg)
	t.Cleanup(in.Close)
	return in, eg
}

// echoServer accepts connections and echoes bytes until client FIN,
// then half-closes so the client sees EOF after the last byte.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				io.Copy(c, c)
				closeWrite(c)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestGatewayEndToEnd is the single-process half of the acceptance
// proof: a real TCP transfer through SOCKS → multi-hop token-guarded
// mesh → egress → echo server, hash-checked in both directions, with
// the ledger reconciling afterwards.
func TestGatewayEndToEnd(t *testing.T) {
	const total = 2 << 20
	m := buildMesh(t, 3)
	in, eg := gatewayPair(t, m, Config{})
	echo := echoServer(t)

	conn, err := DialSocks(in.Addr(), echo)
	if err != nil {
		t.Fatalf("DialSocks: %v", err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	var sentSum, gotSum [32]byte
	var readErr error
	var got int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := sha256.New()
		n, err := io.Copy(h, conn)
		got, readErr = n, err
		h.Sum(gotSum[:0])
	}()

	h := sha256.New()
	rnd := rand.New(rand.NewSource(99))
	buf := make([]byte, 64<<10)
	left := total
	for left > 0 {
		n := len(buf)
		if left < n {
			n = left
		}
		rnd.Read(buf[:n])
		h.Write(buf[:n])
		if _, err := conn.Write(buf[:n]); err != nil {
			t.Fatalf("write: %v", err)
		}
		left -= n
	}
	h.Sum(sentSum[:0])
	closeWrite(conn)
	wg.Wait()

	if readErr != nil {
		t.Fatalf("read back: %v", readErr)
	}
	if got != total {
		t.Fatalf("echoed %d bytes, want %d", got, total)
	}
	if sentSum != gotSum {
		t.Fatal("echo bytes differ from sent bytes (hash mismatch)")
	}

	// Clean bidirectional shutdown on both relays, then billing.
	waitForCond(t, 5*time.Second, func() bool {
		return in.Stats().ActiveStreams == 0 && eg.Stats().ActiveStreams == 0
	})
	is, es := in.Stats(), eg.Stats()
	if is.CleanCloses != 1 || es.CleanCloses != 1 {
		t.Fatalf("clean closes: ingress %d egress %d, want 1/1", is.CleanCloses, es.CleanCloses)
	}
	if is.BytesIn != total || es.BytesOut != total {
		t.Fatalf("uplink byte accounting: ingress in %d, egress out %d, want %d",
			is.BytesIn, es.BytesOut, total)
	}
	if es.BytesIn != total || is.BytesOut != total {
		t.Fatalf("downlink byte accounting: egress in %d, ingress out %d, want %d",
			es.BytesIn, is.BytesOut, total)
	}
	m.reconcile(t)
}

// TestGatewayBackpressure proves the no-unbounded-buffering contract:
// with the destination not reading, a client pouring bytes in must be
// stalled by the window — the amount absorbed beyond the destination
// socket is bounded by Window × GroupBytes plus kernel buffers.
func TestGatewayBackpressure(t *testing.T) {
	m := buildMesh(t, 2)
	cfg := Config{Window: 2, GroupBytes: 8 << 10}
	in, _ := gatewayPair(t, m, cfg)

	// A destination that accepts and then never reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			// Pin the receive buffer so kernel autotuning cannot keep
			// absorbing bytes on the stalled destination.
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetReadBuffer(64 << 10)
			}
			hold <- c // keep it open, read nothing
		}
	}()

	conn, err := DialSocks(in.Addr(), ln.Addr().String())
	if err != nil {
		t.Fatalf("DialSocks: %v", err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(64 << 10) // ditto for the client's send side
	}
	defer func() {
		if c := <-hold; c != nil {
			c.Close()
		}
	}()

	// Absolute absorbed bytes are dominated by kernel socket buffers
	// (autotuned to megabytes), so the meaningful assertion is the
	// stall: once the window and the kernel buffers are full, further
	// writes must absorb (almost) nothing — the writer is parked, not
	// fed into growing gateway memory.
	buf := make([]byte, 32<<10)
	push := func(d time.Duration) int64 {
		conn.SetWriteDeadline(time.Now().Add(d))
		var pushed int64
		for {
			n, err := conn.Write(buf)
			pushed += int64(n)
			if err != nil {
				return pushed // deadline hit: stalled
			}
		}
	}
	if first := push(2 * time.Second); first == 0 {
		t.Fatal("no bytes accepted at all")
	}
	if second := push(time.Second); second > 256<<10 {
		t.Fatalf("stalled stream still absorbed %d bytes (unbounded buffering)", second)
	}
}

// TestGatewayClientHangup kills the SOCKS client mid-transfer: the
// egress must tear its side down (no leaked stream) and the ledger
// must still reconcile — in-flight retransmissions toward the dead
// stream all remain billed, token-authorized traffic.
func TestGatewayClientHangup(t *testing.T) {
	m := buildMesh(t, 2)
	in, eg := gatewayPair(t, m, Config{GroupBytes: 4 << 10})

	// Destination reads forever, slowly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()

	conn, err := DialSocks(in.Addr(), ln.Addr().String())
	if err != nil {
		t.Fatalf("DialSocks: %v", err)
	}
	if _, err := conn.Write(bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitForCond(t, 5*time.Second, func() bool { return eg.Stats().Streams == 1 })
	// Abortive close (RST), the genuine "client vanished" case. (A
	// plain FIN is a half-close the gateway rightly keeps relaying.)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()

	waitForCond(t, 10*time.Second, func() bool {
		return eg.Stats().ActiveStreams == 0 && in.Stats().ActiveStreams == 0
	})
	if es := eg.Stats(); es.Resets == 0 {
		t.Fatal("egress did not record the teardown as a reset")
	}
	m.reconcile(t)
}

// TestGatewayDialFailure maps egress dial outcomes onto SOCKS replies:
// a refused destination must surface as ReplyConnRefused at the
// client, and the failed stream must not leak on either relay.
func TestGatewayDialFailure(t *testing.T) {
	m := buildMesh(t, 2)
	in, eg := gatewayPair(t, m, Config{})

	// A port with no listener: dial gets ECONNREFUSED.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	_, err = DialSocks(in.Addr(), dead)
	if err == nil {
		t.Fatal("DialSocks succeeded against a dead destination")
	}
	if want := fmt.Sprintf("reply code %d", ReplyConnRefused); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("err = %v, want SOCKS %s", err, want)
	}
	if s := eg.Stats(); s.DialErrors != 1 || s.ActiveStreams != 0 {
		t.Fatalf("egress stats after dial failure: %+v", s)
	}
	if s := in.Stats(); s.OpenFailures != 1 || s.ActiveStreams != 0 {
		t.Fatalf("ingress stats after dial failure: %+v", s)
	}
}

// TestGatewayConcurrentStreams interleaves several independent echo
// transfers over one mesh; each stream's bytes must come back intact
// (stream isolation), and all must close cleanly.
func TestGatewayConcurrentStreams(t *testing.T) {
	m := buildMesh(t, 2)
	in, _ := gatewayPair(t, m, Config{GroupBytes: 8 << 10})
	echo := echoServer(t)

	const streams = 5
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn, err := DialSocks(in.Addr(), echo)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			payload := make([]byte, 100<<10+s*1337)
			rand.New(rand.NewSource(int64(s))).Read(payload)
			go func() {
				conn.Write(payload)
				closeWrite(conn)
			}()
			back, err := io.ReadAll(conn)
			if err != nil {
				errs <- fmt.Errorf("stream %d read: %w", s, err)
				return
			}
			if !bytes.Equal(back, payload) {
				errs <- fmt.Errorf("stream %d corrupted (%d bytes back, want %d)", s, len(back), len(payload))
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitForCond(t, 5*time.Second, func() bool { return in.Stats().ActiveStreams == 0 })
	if s := in.Stats(); s.CleanCloses != streams {
		t.Fatalf("CleanCloses = %d, want %d", s.CleanCloses, streams)
	}
	m.reconcile(t)
}

// TestGatewayLossyMesh pushes a transfer across a mesh link with
// induced loss: VMTP retransmission must deliver every byte intact.
func TestGatewayLossyMesh(t *testing.T) {
	m := buildMesh(t, 2)
	// Impair the trunk between r0 and r1 (both directions).
	m.trunks[0].SetLossRatio(0.05)
	cfg := Config{GroupBytes: 4 << 10, RT: vmtp.Config{
		BaseTimeout: 20 * time.Millisecond,
		GapAckDelay: time.Millisecond,
		MaxRetries:  60,
		CallTimeout: 30 * time.Second,
	}}
	in, _ := gatewayPair(t, m, cfg)
	echo := echoServer(t)

	conn, err := DialSocks(in.Addr(), echo)
	if err != nil {
		t.Fatalf("DialSocks: %v", err)
	}
	defer conn.Close()
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(5)).Read(payload)
	go func() {
		conn.Write(payload)
		closeWrite(conn)
	}()
	back, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatalf("bytes corrupted over lossy mesh (%d back, want %d)", len(back), len(payload))
	}
	if vs := in.Stats().VMTP; vs.Retransmissions == 0 && vs.SelectiveResends == 0 {
		t.Fatal("no retransmission activity despite induced loss")
	}
}

func waitForCond(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
