package daemon

import (
	"fmt"
	"net"
	"time"

	"repro/internal/check"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
	"repro/internal/vmtp"
)

// The standalone gateway role: one process, one token-guarded livenet
// chain with a SOCKS5 ingress host at one end and a dialing egress
// host at the other. Any RFC 1928 client (curl, a browser, DialSocks)
// that connects to the listener gets its TCP stream segmented into
// VMTP packet groups, source-routed across the chain, reassembled in
// order at the egress, and relayed to the real destination — with
// every stream byte billed to check.GatewayAccount on every router
// hop. `sirpentd gateway` and the bench harness both run this; the
// cluster peer role (peer.go) instead grafts the same relays onto a
// partitioned scenario's hosts.

// GatewayConfig configures a standalone gateway chain.
type GatewayConfig struct {
	// Hops is the number of routers between ingress and egress;
	// default 2.
	Hops int
	// Listen is the SOCKS5 listen address; default "127.0.0.1:0".
	Listen string
	// Window and GroupBytes tune the per-stream relay flow control
	// (see gateway.Config); zero means the gateway defaults.
	Window     int
	GroupBytes int
	// RT tunes the underlying VMTP endpoints.
	RT vmtp.Config
}

// GatewayServer is a running standalone gateway.
type GatewayServer struct {
	net     *livenet.Network
	ingress *gateway.Ingress
	egress  *gateway.Egress
	routers []*livenet.Router
	col     *ledger.Collector
}

// gatewayLinkDepth sizes every link of the gateway chain, per
// direction, to hold one stream's full window: the relay's 4
// unacknowledged groups of up to vmtp.MaxGroupPackets packets each. A
// router flushes a whole batch into its transmit ring at once and drops
// what does not fit, so a ring shallower than the window overflows on a
// window-sized burst even when the chain keeps up on average.
const gatewayLinkDepth = 4 * vmtp.MaxGroupPackets

// StartGateway builds the chain and starts serving SOCKS5.
func StartGateway(cfg GatewayConfig) (*GatewayServer, error) {
	if cfg.Hops <= 0 {
		cfg.Hops = 2
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.RT.CallTimeout == 0 {
		cfg.RT.CallTimeout = 60 * time.Second
	}

	col := ledger.NewCollector(ledger.New())
	nw := livenet.NewNetwork(livenet.WithLedgerCollector(col))
	gs := &GatewayServer{net: nw, col: col}

	for i := 0; i < cfg.Hops; i++ {
		gs.routers = append(gs.routers, nw.NewRouter(fmt.Sprintf("R%d", i)))
	}
	inHost := nw.NewHost("ingress")
	egHost := nw.NewHost("egress")
	depth := livenet.WithDepth(gatewayLinkDepth)
	nw.Connect(inHost, 1, gs.routers[0], 1, depth)
	for i := 0; i < cfg.Hops-1; i++ {
		nw.Connect(gs.routers[i], 100, gs.routers[i+1], 1, depth)
	}
	nw.Connect(gs.routers[cfg.Hops-1], 2, egHost, 1, depth)

	// One administrative domain guards the whole chain: every trunk
	// and the egress attachment demand tokens, billed to the gateway
	// account, ReverseOK so the mirrored trailer authorizes the return
	// direction.
	auth := token.NewAuthority([]byte("sirpentd-gateway-domain"))
	for _, r := range gs.routers {
		r.SetTokenAuthority(auth)
	}
	route := []viper.Segment{{Port: 1}}
	for i := 0; i < cfg.Hops-1; i++ {
		gs.routers[i].RequireToken(100)
		route = append(route, viper.Segment{
			Port: 100, Flags: viper.FlagVNT,
			PortToken: auth.Issue(token.Spec{Account: check.GatewayAccount, Port: 100, ReverseOK: true}),
		})
	}
	gs.routers[cfg.Hops-1].RequireToken(2)
	route = append(route,
		viper.Segment{
			Port: 2, Flags: viper.FlagVNT,
			PortToken: auth.Issue(token.Spec{Account: check.GatewayAccount, Port: 2, ReverseOK: true}),
		},
		viper.Segment{Port: viper.PortLocal},
	)

	base := gateway.Config{Window: cfg.Window, GroupBytes: cfg.GroupBytes, RT: cfg.RT}
	egCfg := base
	egCfg.Entity = check.GatewayEgressEntity
	gs.egress = gateway.NewEgress(egHost, 0, egCfg)

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		nw.Stop()
		return nil, fmt.Errorf("daemon: gateway listen %q: %w", cfg.Listen, err)
	}
	inCfg := base
	inCfg.Entity = check.GatewayIngressEntity
	inCfg.Peer = check.GatewayEgressEntity
	inCfg.Route = route
	gs.ingress = gateway.NewIngress(ln, inHost, 0, inCfg)
	return gs, nil
}

// Addr is the SOCKS5 listen address.
func (g *GatewayServer) Addr() string { return g.ingress.Addr() }

// IngressStats and EgressStats snapshot the relays' counters.
func (g *GatewayServer) IngressStats() gateway.Stats { return g.ingress.Stats() }
func (g *GatewayServer) EgressStats() gateway.Stats  { return g.egress.Stats() }

// Bill sweeps the routers' token caches and returns the merged
// per-account usage — the gateway's bill for all relayed traffic.
func (g *GatewayServer) Bill() map[uint32]ledger.Entry {
	g.col.Collect()
	return g.col.Ledger().Totals()
}

// reconcileWait bounds how long Reconcile waits for the forwarding
// plane to settle before it reports a mismatch.
const reconcileWait = 2 * time.Second

// Reconcile sweeps the ledger and checks it against the forwarding
// plane's token-authorization counters; nil means every billed packet
// matches an authorization. Packets may still be crossing the routers
// (a closed stream's trailing acks), and a router charges its token
// cache per frame but flushes its counters per batch, so any single
// sweep can land between the two. Reconcile therefore sweeps until the
// authorization count reads the same before and after the sweep and
// the books balance; a mismatch that outlasts reconcileWait is
// reported.
func (g *GatewayServer) Reconcile() []string {
	deadline := time.Now().Add(reconcileWait)
	for {
		before := g.authorized()
		g.col.Collect()
		c := stats.Counters{TokenAuthorized: g.authorized()}
		problems := ledger.Reconcile("gateway", g.col.Ledger(), c)
		if (len(problems) == 0 && c.TokenAuthorized == before) || time.Now().After(deadline) {
			return problems
		}
		time.Sleep(time.Millisecond)
	}
}

// authorized sums the routers' token-authorized packet counters.
func (g *GatewayServer) authorized() uint64 {
	var n uint64
	for _, r := range g.routers {
		n += r.Stats().TokenAuthorized
	}
	return n
}

// Close stops the SOCKS listener, tears down the relays, and stops the
// substrate.
func (g *GatewayServer) Close() {
	g.ingress.Close()
	g.egress.Close()
	g.net.Stop()
}
