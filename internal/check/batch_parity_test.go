package check

import (
	"fmt"
	"testing"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/stats"
)

// batchOpts picks a livenet shape for a seed, sweeping the shapes that
// stress different batch-kernel paths: batch size 1 (the one-frame
// handoff, every flush partial), small sizes that split a flow's packets
// across batches, the default 64, and 1–3 shard workers per router so
// multi-worker transmit contention is exercised.
func batchOpts(seed int64) []livenet.NetworkOption {
	sizes := []int{1, 2, 3, 5, 8, 16, 64}
	return []livenet.NetworkOption{
		livenet.WithBatchSize(sizes[seed%int64(len(sizes))]),
		livenet.WithShards(1 + int(seed%3)),
	}
}

// scalarOpts is the one-frame shape every seed also runs: one frame per
// ring handoff, decision pass, and flush, on one worker per router.
func scalarOpts() []livenet.NetworkOption {
	return []livenet.NetworkOption{livenet.WithBatchSize(1), livenet.WithShards(1)}
}

// TestBatchScalarDecisionParity is the netsim-vs-livenet differential
// across livenet shapes: each of the 60 seeded scenarios runs on
// event-driven netsim and on livenet twice — once with the one-frame
// ("scalar") shape and once with the seed's swept batch size and shard
// count ("batched") — and every observable of each livenet run must
// agree with netsim: delivery sets, delivering hosts, trailer
// fingerprints (i.e. the per-hop byte surgery), payload integrity,
// reply arrivals, and the full counter surface. On any divergence the
// hop-level traces of the disagreeing flows are attached.
func TestBatchScalarDecisionParity(t *testing.T) {
	const seeds = 60
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed)
			net := BuildNetsim(sc)
			routes, err := FlowRoutes(net, sc)
			if err != nil {
				t.Fatalf("routing: %v", err)
			}
			simRes := RunNetsim(net, sc, routes)
			simCtrs := NetsimRouterCounters(net, sc)

			shapes := []struct {
				name string
				opts []livenet.NetworkOption
			}{{"scalar", scalarOpts()}, {"batched", batchOpts(seed)}}
			for _, shape := range shapes {
				res, ctrs, rec := RunLivenetTraced(sc, routes, liveDeadline, shape.opts...)
				for _, p := range Diff(simRes, res, sc) {
					t.Errorf("netsim-vs-%s diff: %s", shape.name, p)
				}
				for _, p := range stats.DiffCounters("netsim", shape.name, simCtrs, ctrs) {
					t.Errorf("counters: %s", p)
				}
				for _, p := range CheckReachability(res, sc) {
					t.Errorf("%s: %s", shape.name, p)
				}
				if _, _, _, se := res.Counts(); se != 0 {
					t.Errorf("%s: %d send errors", shape.name, se)
				}
				if ids := DivergingFlows(simRes, res, sc); len(ids) > 0 {
					t.Logf("trace evidence for diverging flows:\n%s", TraceEvidence(shape.name, rec, ids))
				}
			}
		})
	}
}

// TestBatchScalarLedgerParity is the billing half of shape parity: the
// tokened workload (every router guarded on every port, per-source-host
// accounts) runs on netsim and on livenet at the one-frame and the
// seed's swept shape, and the swept ledgers must agree account by
// account — packets, bytes, denials — while each side independently
// reconciles against its TokenAuthorized counter. This is what pins the
// batch kernel's charge ordering: token charges land in Decide/Install
// batch order, and any double- or missed-charge shows up as a
// per-account byte divergence. Each router's token-cache work — full
// verifications and cache hits — must match netsim's too, so a batch
// that verifies one new token once per frame instead of once per token
// fails here even when every charge agrees.
func TestBatchScalarLedgerParity(t *testing.T) {
	const seeds = 60
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed)
			net := BuildNetsimTokened(sc)
			routes, err := FlowRoutesAccounted(net, sc)
			if err != nil {
				t.Fatalf("routing: %v", err)
			}
			simRes := RunNetsim(net, sc, routes)
			simLed := CollectNetsimLedger(net)
			simCtrs := NetsimRouterCounters(net, sc)
			simWork := NetsimTokenWork(net, sc)

			for _, shape := range []struct {
				name string
				opts []livenet.NetworkOption
			}{{"scalar", scalarOpts()}, {"batched", batchOpts(seed)}} {
				res, ctrs, led, fr, work := runLivenetLedgered(sc, routes, liveDeadline, shape.opts...)
				failed := false
				report := func(format string, args ...any) {
					failed = true
					t.Errorf(format, args...)
				}
				for _, p := range Diff(simRes, res, sc) {
					report("%s diff: %s", shape.name, p)
				}
				for _, p := range stats.DiffCounters("netsim", shape.name, simCtrs, ctrs) {
					report("counters: %s", p)
				}
				for _, p := range ledger.Reconcile(shape.name, led, ctrs) {
					report("%s", p)
				}
				for _, p := range DiffLedgers(simLed, led) {
					report("%s ledger: %s", shape.name, p)
				}
				for _, p := range DiffTokenWork("netsim", shape.name, simWork, work) {
					report("%s", p)
				}
				if n := ctrs.Drops[stats.DropTokenDenied]; n != 0 {
					report("%s: %d token denials in an all-authorized run", shape.name, n)
				}
				if failed {
					t.Logf("%s flight recorder:\n%s", shape.name, fr.Format())
				}
			}
		})
	}
}
