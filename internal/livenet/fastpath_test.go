package livenet

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/viper"
)

// The hop-drive machinery — hopDriver, forwardOneBatch, newHopBatch,
// hopTemplateBytes, hopHdrTemplate — lives in bench.go so BenchHop can
// reuse it outside tests.

// TestForwardHopAllocs pins the fast-path regression bound on the
// one-frame batch (WithBatchSize(1)): one forwarded hop — decode, header
// swap, in-place trailer surgery, ring transmit — costs at most one
// amortized heap allocation, and in steady state zero.
func TestForwardHopAllocs(t *testing.T) {
	r, p, sc := hopDriver(1)
	tmpl := hopTemplateBytes()
	hdrs, drain := newHopBatch(1)
	// Warm the pool so steady state is measured, not the first fill.
	for i := 0; i < 8; i++ {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain, nil)
	}
	allocs := testing.AllocsPerRun(500, func() {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain, nil)
	})
	if allocs > 1 {
		t.Fatalf("forwarding one hop allocates %.2f times, want <= 1", allocs)
	}
	if s := r.Stats(); s.Forwarded == 0 || s.TotalDrops() != 0 {
		t.Fatalf("unexpected counters after bench loop: %v", s)
	}
}

// BenchmarkForwardHop measures the router fast path in isolation on
// one-frame batches: ns and allocs per §6.2 byte-surgery hop.
func BenchmarkForwardHop(b *testing.B) {
	benchmarkForwardHop(b, 1, nil)
}

// discardTracer opens records that are never retained, isolating the
// per-hop cost of tracing itself from recorder bookkeeping.
type discardTracer struct{}

func (discardTracer) Begin(payload []byte) *trace.PacketTrace {
	return &trace.PacketTrace{Hops: make([]trace.HopEvent, 0, 8)}
}
func (discardTracer) Finish(*trace.PacketTrace) {}

// BenchmarkForwardHopTraced measures the same fast path with a trace
// record attached to every frame — the enabled-path overhead quoted in
// EXPERIMENTS.md. Each iteration begins a fresh record, so the cost
// includes record allocation, clock reads and the hop append.
func BenchmarkForwardHopTraced(b *testing.B) {
	benchmarkForwardHop(b, 1, discardTracer{})
}

// benchmarkForwardHop drives batch-frame batches through the isolated
// hop and reports ns per hop.
func benchmarkForwardHop(b *testing.B, batch int, tr trace.Tracer) {
	r, p, sc := hopDriver(batch)
	tmpl := hopTemplateBytes()
	hdrs, drain := newHopBatch(batch)
	forwardOneBatch(r, p, sc, tmpl, hdrs, drain, tr)
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for hops < b.N {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain, tr)
		hops += batch
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
}

// BenchmarkChain4 runs the full goroutine substrate — hosts, rings,
// shard workers — over a 4-router chain, reporting end-to-end packet
// cost.
func BenchmarkChain4(b *testing.B) {
	res := BenchChain(4, 100*time.Millisecond)
	if res.Packets == 0 {
		b.Fatal("no packets delivered")
	}
	b.ReportMetric(res.NsPerHop, "ns/hop")
	b.ReportMetric(res.PktsPerSec, "pkts/s")
	b.ReportMetric(res.AllocsPerPkt, "allocs/pkt")
}

// TestAppendTrailerSegmentMatchesReference runs seeded random packets
// through multi-hop surgery twice — the in-place fast path and the
// allocating reference implementation — and requires byte equality
// after every hop.
func TestAppendTrailerSegmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nHops := 1 + rng.Intn(6)
		route := make([]viper.Segment, 0, nHops+1)
		for i := 0; i < nHops; i++ {
			s := viper.Segment{Port: uint8(1 + rng.Intn(250)), Flags: viper.FlagVNT}
			if rng.Intn(2) == 0 {
				s.PortToken = randBytes(rng, 1+rng.Intn(12))
			}
			route = append(route, s)
		}
		route = append(route, viper.Segment{Port: viper.PortLocal})
		pkt := viper.NewPacket(route, randBytes(rng, rng.Intn(200)))
		pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
		encoded, err := pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}

		// fast walks the in-place path in a pooled buffer with headroom;
		// slow rebuilds each hop with the allocating reference.
		fast := pool.Get(len(encoded) + frameHeadroom(nHops, len(encoded)))
		fast = append(fast, encoded...)
		slow := append([]byte(nil), encoded...)
		for hop := 0; hop < nHops; hop++ {
			fseg, frest, err := viper.DecodeSegmentNoCopy(fast)
			if err != nil {
				t.Fatalf("iter %d hop %d: fast decode: %v", iter, hop, err)
			}
			sseg, srest, err := viper.DecodeSegment(slow)
			if err != nil {
				t.Fatalf("iter %d hop %d: slow decode: %v", iter, hop, err)
			}
			fret := viper.Segment{Port: uint8(hop + 1), Priority: fseg.Priority, PortToken: fseg.PortToken}
			sret := viper.Segment{Port: uint8(hop + 1), Priority: sseg.Priority, PortToken: sseg.PortToken}
			if fast, err = dataplane.AppendTrailerSegment(frest, &fret); err != nil {
				t.Fatalf("iter %d hop %d: fast surgery: %v", iter, hop, err)
			}
			if slow, err = dataplane.AppendTrailerSegmentRef(srest, &sret); err != nil {
				t.Fatalf("iter %d hop %d: slow surgery: %v", iter, hop, err)
			}
			if !bytes.Equal(fast, slow) {
				t.Fatalf("iter %d hop %d: fast path diverges from reference\nfast: %x\nslow: %x",
					iter, hop, fast, slow)
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestBenchChainSmoke keeps the benchmark harness itself under test: a
// short run must deliver packets and produce sane derived metrics.
func TestBenchChainSmoke(t *testing.T) {
	res := BenchChain(2, 50*time.Millisecond)
	if res.Packets == 0 || res.PktsPerSec <= 0 || res.NsPerHop <= 0 {
		t.Fatalf("degenerate bench result: %+v", res)
	}
	if res.Topology != "chain" || res.Hops != 2 || res.Batch != DefaultBatchSize {
		t.Fatalf("mislabeled result: %+v", res)
	}
}

// TestBenchMeshSmoke does the same for the mesh topology.
func TestBenchMeshSmoke(t *testing.T) {
	res := BenchMesh(2, 2, 50*time.Millisecond)
	if res.Packets == 0 || res.Flows != 2 {
		t.Fatalf("degenerate bench result: %+v", res)
	}
}

// TestBenchChainPreparedSmoke covers the prepared-injection rows:
// Sender-injected packets must traverse the chain and reach the raw
// sink, with far fewer allocations per packet than the encode path's
// ~7.
func TestBenchChainPreparedSmoke(t *testing.T) {
	res := BenchChainPrepared(2, 50*time.Millisecond)
	if res.Packets == 0 || res.PktsPerSec <= 0 {
		t.Fatalf("degenerate bench result: %+v", res)
	}
	if res.Injection != "prepared" {
		t.Fatalf("mislabeled result: %+v", res)
	}
	if res.AllocsPerPkt > 1 {
		t.Fatalf("prepared injection allocates %.2f/pkt, want <= 1", res.AllocsPerPkt)
	}
}

// TestBenchFanSmoke covers the flow-count sweep topology: every flow
// must deliver through the shared trunk.
func TestBenchFanSmoke(t *testing.T) {
	res := BenchFan(3, 2, 50*time.Millisecond)
	if res.Packets == 0 || res.Flows != 2 || res.Hops != 3 {
		t.Fatalf("degenerate bench result: %+v", res)
	}
}

// TestBenchHopSmoke keeps the isolated-hop measurement sane: it must
// report a positive per-hop time and zero steady-state allocations at
// both ends of the batch-size range.
func TestBenchHopSmoke(t *testing.T) {
	for _, batch := range []int{1, DefaultBatchSize} {
		res := BenchHop(batch, 2048)
		if res.NsPerHop <= 0 || res.Packets == 0 || res.Batch != batch {
			t.Fatalf("degenerate bench result: %+v", res)
		}
		if res.AllocsPerHop > 0.01 {
			t.Fatalf("isolated hop at batch %d allocates %.3f/hop, want 0", batch, res.AllocsPerHop)
		}
	}
}
