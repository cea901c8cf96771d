package daemon

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/directory"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/udpnet"
	"repro/internal/vmtp"
)

// PeerConfig configures one cluster peer: the daemon realizing its
// share of a seeded scenario on a local livenet substrate, with
// cross-partition links carried over UDP.
type PeerConfig struct {
	// Index identifies this peer (0-based); Total is the cluster size.
	Index, Total int
	// Seed selects the scenario; must match the directory's.
	Seed int64
	// DirURL is the directory service base URL.
	DirURL string
	// UDPAddr is the bridge listen address; default "127.0.0.1:0".
	UDPAddr string
	// SettleTimeout bounds the wait for local quiesce; default 30s.
	SettleTimeout time.Duration
	// LossRatio injects loss on every tunnel this peer terminates
	// (fault-injection runs; 0 for conformance).
	LossRatio float64
	// Gateway runs the cluster in gateway mode: the peers owning the
	// scenario's deterministic gateway hosts (check.GatewayHosts) bind
	// SOCKS ingress / dialing egress relays on them, and every peer
	// holds the drain barrier until the launcher raises the directory's
	// shutdown latch — so the ledger sweep still sees a quiet network.
	Gateway bool
	// GatewayListen is the ingress SOCKS listen address; default
	// "127.0.0.1:0".
	GatewayListen string
	// GatewayWait bounds the wait for the launcher's shutdown latch in
	// gateway mode; default 2m.
	GatewayWait time.Duration
	// Alternates asks the directory for up to N ranked failover
	// alternates per router hop on every flow route, so DAG hops can
	// divert mid-flight when a tunnel dies (DESIGN.md §15).
	Alternates int
	// Failover runs the two-wave failover smoke: the first half of the
	// flows (even scenario indexes) runs on the healthy mesh and drains
	// cluster-wide; every peer terminating cross-link BlipLink then
	// takes its tunnel end down behind a barrier, and the second half
	// must keep delivering by diverting onto its in-header alternates —
	// no directory re-query, zero lost transactions.
	Failover bool
	// BlipLink is the global link index (into the scenario's Links) the
	// failover smoke takes down. Both terminating peers match on it, so
	// the link dies in both directions without coordination.
	BlipLink int
	// Telemetry enables cluster observability: a ClusterTracer samples
	// packets on the substrate (trace contexts ride the tunnel and
	// gateway wire formats across process boundaries), and the peer
	// ships cumulative TelemetryReports to the directory — periodically
	// while running, once synchronously at quiesce.
	Telemetry bool
	// TraceSample traces one originated packet in N (<= 1 traces all).
	// Only meaningful with Telemetry.
	TraceSample int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *PeerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Peer runs the peer role to completion: build owned topology, join
// the cluster, push the owned share of the workload, quiesce, report,
// and tear down. The returned Report is what was posted to the
// directory.
func Peer(cfg PeerConfig) (*Report, error) {
	if cfg.Total <= 0 || cfg.Index < 0 || cfg.Index >= cfg.Total {
		return nil, fmt.Errorf("daemon: peer index %d out of range for %d peers", cfg.Index, cfg.Total)
	}
	if cfg.UDPAddr == "" {
		cfg.UDPAddr = "127.0.0.1:0"
	}
	if cfg.SettleTimeout == 0 {
		cfg.SettleTimeout = 30 * time.Second
	}
	if cfg.GatewayListen == "" {
		cfg.GatewayListen = "127.0.0.1:0"
	}
	if cfg.GatewayWait == 0 {
		cfg.GatewayWait = 2 * time.Minute
	}
	name := check.PeerName(cfg.Index)
	sc := check.Generate(cfg.Seed)

	// Local substrate: owned routers (token-guarded exactly as the
	// single-process ledgered run guards them), their hosts, and every
	// link with both ends owned.
	fr := ledger.NewFlightRecorder(0)
	col := ledger.NewCollector(ledger.New())
	netOpts := []livenet.NetworkOption{
		livenet.WithFlightRecorder(fr),
		livenet.WithLedgerCollector(col),
	}
	// Cluster tracing: trace IDs originated here carry this peer's index
	// above bit 48, so IDs are cluster-unique and any process can tell
	// "my trace" from "a trace I'm forwarding" without coordination.
	var spans *trace.Spans
	var tracer *trace.ClusterTracer
	if cfg.Telemetry {
		sample := cfg.TraceSample
		if sample < 1 {
			sample = 1
		}
		spans = trace.NewSpans(0)
		tracer = trace.NewClusterTracer(name, uint64(cfg.Index+1)<<48, uint64(sample), spans, trace.NewMetrics())
		netOpts = append(netOpts, livenet.WithTracer(tracer))
	}
	netw := livenet.NewNetwork(netOpts...)
	defer netw.Stop()

	routers := make(map[int]*livenet.Router)
	for ri := 0; ri < sc.NRouters; ri++ {
		if check.Owner(ri, cfg.Total) != cfg.Index {
			continue
		}
		r := netw.NewRouter(check.RouterName(ri))
		r.SetTokenAuthority(token.NewAuthority(check.TokenKey(ri)))
		for _, p := range check.RouterPorts(sc, ri) {
			r.RequireToken(p)
		}
		routers[ri] = r
	}
	hosts := make(map[int]*livenet.Host)
	for hi := range sc.HostRouter {
		if check.HostOwner(sc, hi, cfg.Total) != cfg.Index {
			continue
		}
		hosts[hi] = netw.NewHost(check.HostName(hi))
		netw.Connect(hosts[hi], 1, routers[sc.HostRouter[hi]], sc.HostPort[hi], livenet.WithDepth(64))
	}
	for _, l := range sc.Links {
		if check.Owner(l.A, cfg.Total) == cfg.Index && check.Owner(l.B, cfg.Total) == cfg.Index {
			netw.Connect(routers[l.A], l.APort, routers[l.B], l.BPort, livenet.WithDepth(64))
		}
	}

	// Cross-partition links become UDP tunnels; the global link index
	// is the wire linkID, so both ends agree without coordination.
	bridge, err := udpnet.Listen(cfg.UDPAddr,
		udpnet.WithFlightRecorder(fr), udpnet.WithTelemetry(name, spans))
	if err != nil {
		return nil, err
	}
	defer bridge.Close()
	type pending struct {
		tun      *udpnet.Tunnel
		farOwner int
	}
	var tunnels []pending
	for _, li := range check.CrossLinks(sc, cfg.Total) {
		l := sc.Links[li]
		var ri int
		var port uint8
		var far int
		switch cfg.Index {
		case check.Owner(l.A, cfg.Total):
			ri, port, far = l.A, l.APort, check.Owner(l.B, cfg.Total)
		case check.Owner(l.B, cfg.Total):
			ri, port, far = l.B, l.BPort, check.Owner(l.A, cfg.Total)
		default:
			continue
		}
		tun, err := bridge.Attach(netw, routers[ri], port, uint16(li))
		if err != nil {
			return nil, err
		}
		if cfg.LossRatio > 0 {
			tun.SetLossRatio(cfg.LossRatio)
		}
		tunnels = append(tunnels, pending{tun: tun, farOwner: far})
	}

	// Workload receivers: the echo protocol of the conformance harness,
	// scoped to owned hosts. Requests are recorded and answered along
	// the accumulated return route; replies are recorded at the origin.
	// Handlers MUST be live before the "up" barrier below — a faster
	// peer injects the moment the barrier clears, and a request
	// arriving at a handlerless host would be dropped.
	rep := &Report{
		Peer:        name,
		Delivered:   make(map[uint64]string),
		Replied:     make(map[uint64]string),
		RouterUsage: make(map[string]map[uint32]token.Usage),
		Tunnels:     make(map[uint16]udpnet.Stats),
	}
	var mu sync.Mutex
	for hi, h := range hosts {
		hname := check.HostName(hi)
		h := h
		h.Handle(0, func(d livenet.Delivery) {
			id, kind, ok := check.ParseData(d.Data)
			if !ok || id == 0 || int(id) > len(sc.Flows) {
				mu.Lock()
				rep.Garbled++
				mu.Unlock()
				return
			}
			switch kind {
			case check.KindRequest:
				f := sc.Flows[id-1]
				mu.Lock()
				if _, dup := rep.Delivered[id]; dup {
					rep.Duplicates++
				}
				rep.Delivered[id] = hname
				if !bytes.Equal(d.Data, check.FlowData(f)) {
					rep.DataBad++
				}
				mu.Unlock()
				if err := h.Send(d.ReturnRoute, check.ReplyData(id)); err != nil {
					mu.Lock()
					rep.SendErrs++
					mu.Unlock()
				}
			case check.KindReply:
				mu.Lock()
				if _, dup := rep.Replied[id]; dup {
					rep.Duplicates++
				}
				rep.Replied[id] = hname
				mu.Unlock()
			default:
				mu.Lock()
				rep.Garbled++
				mu.Unlock()
			}
		})
	}

	// Gateway relays, when this peer owns a gateway host: the egress
	// (a dialing relay needing no route of its own) and the SOCKS
	// ingress, whose ingress→egress source route — tokens included —
	// comes from the directory like any flow's. Both bind
	// check.GatewayEndpoint, leaving endpoint 0 to the echo protocol
	// above; their VMTP return traffic addresses that endpoint via the
	// origin trailer, so stream acks never collide with flow replies.
	client := directory.NewClient(cfg.DirURL)
	gin, geg := check.GatewayHosts(sc, cfg.Total)
	var gwIngress *gateway.Ingress
	var gwEgress *gateway.Egress
	if cfg.Gateway {
		gwRT := vmtp.Config{BaseTimeout: 50 * time.Millisecond, CallTimeout: 60 * time.Second}
		if h, ok := hosts[geg]; ok {
			gwEgress = gateway.NewEgress(h, check.GatewayEndpoint, gateway.Config{
				Entity: check.GatewayEgressEntity, RT: gwRT,
				Telemetry: spans, TraceEvery: cfg.TraceSample, Node: name,
			})
			defer gwEgress.Close()
		}
		if h, ok := hosts[gin]; ok {
			routes, err := client.Routes(directory.Query{
				From:     check.HostName(gin),
				To:       check.HostName(geg),
				Endpoint: check.GatewayEndpoint,
				Account:  check.GatewayAccount,
			})
			if err != nil {
				return nil, fmt.Errorf("daemon: gateway route %s->%s: %w",
					check.HostName(gin), check.HostName(geg), err)
			}
			ln, err := net.Listen("tcp", cfg.GatewayListen)
			if err != nil {
				return nil, fmt.Errorf("daemon: gateway listen: %w", err)
			}
			gwIngress = gateway.NewIngress(ln, h, check.GatewayEndpoint, gateway.Config{
				Entity:    check.GatewayIngressEntity,
				Peer:      check.GatewayEgressEntity,
				Route:     routes[0].Segments,
				RT:        gwRT,
				Telemetry: spans, TraceEvery: cfg.TraceSample, Node: name,
			})
			defer gwIngress.Close()
			cfg.logf("%s: SOCKS ingress on %s (route %v)", name, gwIngress.Addr(), routes[0].Path)
		}
	}

	// Join: register the bridge address, wait for the full roster,
	// resolve every tunnel's far end, and barrier until the whole
	// cluster is wired — no packet crosses a tunnel before both ends
	// exist, so nothing is lost to startup order.
	var ownedNodes []string
	for ri := range routers {
		ownedNodes = append(ownedNodes, check.RouterName(ri))
	}
	reg := directory.PeerReg{Name: name, UDPAddr: bridge.Addr().String(), Nodes: ownedNodes}
	if gwIngress != nil {
		reg.Socks = gwIngress.Addr()
	}
	if _, err := client.Register(reg); err != nil {
		return nil, err
	}
	roster, err := client.WaitPeers(cfg.Total, cfg.SettleTimeout)
	if err != nil {
		return nil, err
	}
	addrOf := make(map[string]*net.UDPAddr, len(roster))
	for _, p := range roster {
		ua, err := net.ResolveUDPAddr("udp", p.UDPAddr)
		if err != nil {
			return nil, fmt.Errorf("daemon: peer %s has bad address %q: %w", p.Name, p.UDPAddr, err)
		}
		addrOf[p.Name] = ua
	}
	for _, pd := range tunnels {
		far := check.PeerName(pd.farOwner)
		ua, ok := addrOf[far]
		if !ok {
			return nil, fmt.Errorf("daemon: tunnel %d's far owner %s never registered", pd.tun.LinkID(), far)
		}
		pd.tun.SetRemote(ua)
	}
	if err := client.Barrier(name, "up"); err != nil {
		return nil, err
	}
	cfg.logf("%s: cluster up, %d routers %d hosts %d tunnels", name, len(routers), len(hosts), len(tunnels))

	// Telemetry shipping: cumulative snapshots flow to the directory
	// every half second while the workload runs, and once more
	// synchronously at quiesce (below) so the merged cluster view is
	// final-state exact, not last-tick approximate.
	var tp *telemetryPeer
	stopShip := make(chan struct{})
	var shipDone <-chan struct{}
	if cfg.Telemetry {
		tp = &telemetryPeer{
			name:   name,
			tracer: tracer,
			flight: fr,
			tunnels: func() []directory.TunnelTelemetry {
				out := make([]directory.TunnelTelemetry, 0, len(tunnels))
				for _, pd := range tunnels {
					st := pd.tun.Stats()
					out = append(out, directory.TunnelTelemetry{
						LinkID:       pd.tun.LinkID(),
						Peer:         check.PeerName(pd.farOwner),
						Encapsulated: st.Encapsulated,
						Decapsulated: st.Decapsulated,
						DecodeErrors: st.DecodeErrors,
						SendErrors:   st.SendErrors,
						Dropped:      st.Dropped,
						TracedSent:   st.TracedSent,
						TracedRecv:   st.TracedRecv,
					})
				}
				return out
			},
			gateways: func() []directory.GatewayTelemetry {
				var out []directory.GatewayTelemetry
				if gwIngress != nil {
					out = append(out, gatewayTelemetry("ingress", gwIngress.Stats(), gwIngress.PeerRTTs()))
				}
				if gwEgress != nil {
					out = append(out, gatewayTelemetry("egress", gwEgress.Stats(), gwEgress.PeerRTTs()))
				}
				return out
			},
		}
		shipDone = tp.run(client, 500*time.Millisecond, stopShip)
	}

	// Inject owned flows, with routes — and tokens — fetched from the
	// directory over the wire, the same queries the single-process run
	// makes in-process. Normally one wave; the failover smoke splits the
	// flows in two so the blip link dies on a provably quiet network
	// (wave 0 drained cluster-wide) and wave 1 exercises mid-flight
	// failover with nothing racing the SetDown.
	waves := 1
	if cfg.Failover {
		waves = 2
	}
	deadline := time.Now().Add(cfg.SettleTimeout)
	var wantDelivered, wantReplied int
	for w := 0; w < waves; w++ {
		for fi, f := range sc.Flows {
			if fi%waves != w {
				continue
			}
			if check.HostOwner(sc, f.Dst, cfg.Total) == cfg.Index {
				wantDelivered++
			}
			if check.HostOwner(sc, f.Src, cfg.Total) != cfg.Index {
				continue
			}
			wantReplied++
			routes, err := client.Routes(directory.Query{
				From:       check.HostName(f.Src),
				To:         check.HostName(f.Dst),
				Priority:   f.Prio,
				Account:    check.AccountFor(f),
				Alternates: cfg.Alternates,
			})
			if err != nil {
				return nil, fmt.Errorf("daemon: route for flow %d: %w", f.ID, err)
			}
			if err := hosts[f.Src].Send(routes[0].Segments, check.FlowData(f)); err != nil {
				mu.Lock()
				rep.SendErrs++
				mu.Unlock()
			}
		}

		// Quiesce: local completeness is every owned destination seeing
		// its request and every owned source seeing its reply. When all
		// peers are locally complete, no data packet is in flight
		// anywhere — the "drained" barrier then makes the ledger sweep a
		// snapshot of a quiet network (and the failover blip a cut on a
		// quiet one).
		for {
			mu.Lock()
			done := len(rep.Delivered) >= wantDelivered && len(rep.Replied) >= wantReplied
			mu.Unlock()
			if done {
				rep.Complete = true
				break
			}
			if time.Now().After(deadline) {
				rep.Complete = false
				break
			}
			time.Sleep(2 * time.Millisecond)
		}

		if cfg.Failover && w == 0 {
			if err := client.Barrier(name, "wave0-drained"); err != nil {
				return nil, err
			}
			for _, pd := range tunnels {
				if int(pd.tun.LinkID()) == cfg.BlipLink {
					pd.tun.SetDown(true)
					cfg.logf("%s: tunnel %d down — wave 1 must fail over in-header", name, pd.tun.LinkID())
				}
			}
			if err := client.Barrier(name, "blipped"); err != nil {
				return nil, err
			}
		}
	}
	// Gateway mode: the workload is driven from outside (the launcher's
	// SOCKS transfer), so every peer — whether it hosts a relay or just
	// forwards stream traffic — holds here until the launcher raises
	// the shutdown latch. Relays then drain their streams and close
	// BEFORE the drain barrier, so the ledger sweep below is still a
	// snapshot of a quiet network.
	if cfg.Gateway {
		gwDeadline := time.Now().Add(cfg.GatewayWait)
		for {
			sd, err := client.ShutdownRequested()
			if err == nil && sd {
				break
			}
			if time.Now().After(gwDeadline) {
				rep.Complete = false
				cfg.logf("%s: gateway shutdown latch never raised", name)
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		waitIdle := func(active func() int) {
			d := time.Now().Add(5 * time.Second)
			for active() > 0 && time.Now().Before(d) {
				time.Sleep(5 * time.Millisecond)
			}
		}
		if gwIngress != nil {
			waitIdle(func() int { return gwIngress.Stats().ActiveStreams })
			gwIngress.Close()
			rep.Gateways = append(rep.Gateways, GatewayReport{
				Role: "ingress", Host: check.HostName(gin),
				Socks: gwIngress.Addr(), Stats: gwIngress.Stats(),
			})
		}
		if gwEgress != nil {
			waitIdle(func() int { return gwEgress.Stats().ActiveStreams })
			gwEgress.Close()
			rep.Gateways = append(rep.Gateways, GatewayReport{
				Role: "egress", Host: check.HostName(geg), Stats: gwEgress.Stats(),
			})
		}
	}
	if err := client.Barrier(name, "drained"); err != nil {
		return nil, err
	}

	// Evidence: sweep owned routers' token caches (the construction-
	// time collector registered them), post per-router usage to the
	// directory's billing database, and file the report.
	col.Collect()
	mu.Lock()
	defer mu.Unlock()
	for ri, r := range routers {
		rn := check.RouterName(ri)
		totals := r.TokenCache().AccountTotals()
		rep.RouterUsage[rn] = totals
		if err := client.ReportUsage(rn, totals); err != nil {
			return nil, err
		}
		s := r.Stats()
		rep.TokenAuthorized += s.TokenAuthorized
		rep.Forwarded += s.Forwarded
		rep.RouterDrops += s.TotalDrops()
	}
	for _, pd := range tunnels {
		st := pd.tun.Stats()
		rep.Tunnels[pd.tun.LinkID()] = st
		rep.TunnelDropped += st.Dropped
	}
	rep.Anomalies = fr.Total()
	for _, ev := range fr.Events() {
		if ev.Kind == ledger.KindFailover {
			rep.Failovers++
		}
	}
	// Final telemetry ship, after the drain barrier and the sweeps above:
	// the network is quiet, so this snapshot is the one the cluster
	// verifier reconciles (span-leak and wire-span invariants hold only
	// at quiesce). Synchronous and fatal, unlike the periodic posts.
	if tp != nil {
		close(stopShip)
		<-shipDone
		if err := tp.ship(client); err != nil {
			return nil, fmt.Errorf("daemon: final telemetry ship: %w", err)
		}
	}
	if err := client.Report(name, rep); err != nil {
		return nil, err
	}

	// Exit barrier: nobody tears down their bridge while a peer might
	// still want its reports served or late frames delivered.
	if err := client.Barrier(name, "done"); err != nil {
		return nil, err
	}
	cfg.logf("%s: done — %d delivered, %d replied, complete=%v",
		name, len(rep.Delivered), len(rep.Replied), rep.Complete)
	return rep, nil
}
