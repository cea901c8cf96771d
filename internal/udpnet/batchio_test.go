package udpnet

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/trace"
	"repro/internal/viper"
)

// writerFixture builds a tunnel whose socket call is send, with a
// known remote, an egress queue, and a real inner link, for driving the
// batch writer directly.
func writerFixture(t *testing.T, send sendBatch) (*Tunnel, *ledger.FlightRecorder) {
	t.Helper()
	tun, fr := detectorFixture(t)
	tun.out = make(chan []byte, 2*sendBatchMax)
	tun.send = send
	tun.remote.Store(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
	return tun, fr
}

// drainQueue takes everything egress has queued, as one writer pass
// would.
func drainQueue(tun *Tunnel) [][]byte {
	var batch [][]byte
	for {
		select {
		case dg := <-tun.out:
			batch = append(batch, dg)
		default:
			return batch
		}
	}
}

// TestWriteBatchFailureMidBatch checks that a socket failure partway
// through a batch is charged per datagram: the datagrams before it are
// encapsulated, every datagram from the failure on costs one SendError
// and one flight event, and the consecutive failures trip peer loss at
// PeerLossThreshold. The fake socket also returns short counts, so the
// writer's resume-after-partial-send path runs too.
func TestWriteBatchFailureMidBatch(t *testing.T) {
	const total, okFirst = 10, 4
	sent := 0
	tun, fr := writerFixture(t, func(dgs [][]byte, to *net.UDPAddr) (int, error) {
		n := min(len(dgs), 3, okFirst-sent)
		sent += n
		if n < len(dgs) && sent == okFirst {
			return n, errors.New("socket gone")
		}
		return n, nil
	})
	for i := 0; i < total; i++ {
		tun.egress([]byte{byte(i)}, trace.Context{})
	}
	tun.writeBatch(drainQueue(tun))

	s := tun.Stats()
	if s.Encapsulated != okFirst || s.SendErrors != total-okFirst {
		t.Fatalf("stats = %+v, want %d encapsulated and %d send errors", s, okFirst, total-okFirst)
	}
	if !tun.PeerLost() || !tun.InnerLink().IsDown() {
		t.Fatalf("%d consecutive send errors did not declare the peer lost (threshold %d)", total-okFirst, PeerLossThreshold)
	}
	var sendErrs int
	for _, ev := range fr.Events() {
		if ev.Kind == ledger.KindSendError {
			sendErrs++
		}
	}
	if sendErrs != total-okFirst {
		t.Fatalf("%d send-error flight events, want one per unsent datagram (%d)", sendErrs, total-okFirst)
	}
}

// TestWriteBatchBelowPeerLossThreshold pins the other side of the
// detector inside one batch: runs of failures shorter than the
// threshold, each ended by a successful send, never declare the peer
// lost, even when the batch's failures add up to more than the
// threshold.
func TestWriteBatchBelowPeerLossThreshold(t *testing.T) {
	calls := 0
	tun, _ := writerFixture(t, func(dgs [][]byte, to *net.UDPAddr) (int, error) {
		calls++
		switch calls {
		case 1, 2, 4, 5:
			return 0, errors.New("transient")
		case 3:
			return 1, nil
		}
		return len(dgs), nil
	})
	const total = 8
	for i := 0; i < total; i++ {
		tun.egress([]byte{byte(i)}, trace.Context{})
	}
	tun.writeBatch(drainQueue(tun))
	if s := tun.Stats(); s.SendErrors != 4 || s.Encapsulated != total-4 {
		t.Fatalf("stats = %+v, want 4 send errors and %d encapsulated", s, total-4)
	}
	if tun.PeerLost() {
		t.Fatalf("peer declared lost though no run of failures reached the threshold (%d)", PeerLossThreshold)
	}
}

// receiverFixture is one process's receiving side: a bridge with wire
// spans, a tracer that resumes foreign traces, and a tunnel on link 7
// into router r's port 2, which forwards on port 3 to host dst.
func receiverFixture(t *testing.T) (b *Bridge, tun *Tunnel, dst *livenet.Host, spans *trace.Spans) {
	t.Helper()
	spans = trace.NewSpans(64)
	netw := livenet.NewNetwork(livenet.WithTracer(trace.NewClusterTracer("B", 2<<48, 1, spans, nil)))
	t.Cleanup(netw.Stop)
	b, err := Listen("127.0.0.1:0", WithTelemetry("B", spans))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	r := netw.NewRouter("r")
	dst = netw.NewHost("dst")
	netw.Connect(r, 3, dst, 1)
	if tun, err = b.Attach(netw, r, 2, 7); err != nil {
		t.Fatal(err)
	}
	return b, tun, dst, spans
}

// arrivingPacket encodes a packet as it crosses the tunnel toward the
// receiver's router: forward on port 3, then local delivery.
func arrivingPacket(t *testing.T, payload []byte) []byte {
	t.Helper()
	pkt := viper.NewPacket([]viper.Segment{{Port: 3, Flags: viper.FlagVNT}, {Port: viper.PortLocal}}, payload)
	pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
	b, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wireSpans counts the receiver's "wire:7" spans.
func wireSpans(sp *trace.Spans) int64 {
	for _, st := range sp.Snapshot().Stages {
		if st.Stage == "wire:7" {
			return st.Count
		}
	}
	return 0
}

// TestMixedTracedBatch sends traced and untraced frames interleaved in
// one writer batch and hands the datagrams, as one received batch, to a
// receiving bridge: each datagram keeps its own frame type on the wire,
// each traced one — and only those — yields a "wire:7" span, and every
// frame is delivered.
func TestMixedTracedBatch(t *testing.T) {
	var wire [][]byte
	tx, _ := writerFixture(t, func(dgs [][]byte, to *net.UDPAddr) (int, error) {
		for _, dg := range dgs {
			wire = append(wire, append([]byte(nil), dg...))
		}
		return len(dgs), nil
	})
	tx.linkID = 7
	b, rx, dst, spans := receiverFixture(t)
	const frames = 12
	var delivered int
	got := make(chan struct{}, frames)
	dst.Handle(0, func(livenet.Delivery) { got <- struct{}{} })

	traced := 0
	for i := 0; i < frames; i++ {
		var ctx trace.Context
		if i%3 != 1 {
			ctx = trace.Context{ID: 1<<48 | uint64(i+1), Origin: time.Now().UnixNano(), Budget: trace.DefaultHopBudget}
			traced++
		}
		tx.egress(arrivingPacket(t, []byte{byte(i)}), ctx)
	}
	tx.writeBatch(drainQueue(tx))
	if s := tx.Stats(); s.Encapsulated != frames || s.TracedSent != uint64(traced) {
		t.Fatalf("sender stats = %+v, want %d encapsulated, %d traced", s, frames, traced)
	}
	for i, dg := range wire {
		want := byte(TypeData)
		if i%3 != 1 {
			want = TypeTraced
		}
		if dg[5] != want {
			t.Fatalf("datagram %d has frame type %#x, want %#x", i, dg[5], want)
		}
		if id := binary.BigEndian.Uint16(dg[6:8]); id != 7 {
			t.Fatalf("datagram %d names link %d, want 7", i, id)
		}
	}

	for _, dg := range wire {
		b.demux(dg)
	}
	for delivered < frames {
		select {
		case <-got:
			delivered++
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of %d frames", delivered, frames)
		}
	}
	if s := rx.Stats(); s.Decapsulated != frames || s.TracedRecv != uint64(traced) {
		t.Fatalf("receiver stats = %+v, want %d decapsulated, %d traced", s, frames, traced)
	}
	if n := wireSpans(spans); n != int64(traced) {
		t.Fatalf("%d wire spans, want one per traced datagram (%d)", n, traced)
	}
}

// TestGarbageInsideReceivedBatch puts a datagram with a bad header
// between good ones in one burst on the bridge socket, so they arrive
// together: it costs exactly one bridge decode error, and the datagrams
// after it are still delivered.
func TestGarbageInsideReceivedBatch(t *testing.T) {
	b, rx, dst, _ := receiverFixture(t)
	got := make(chan struct{}, 3) // one per good datagram
	dst.Handle(0, func(livenet.Delivery) { got <- struct{}{} })
	c, err := net.DialUDP("udp", nil, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	frame := func(payload byte) []byte {
		pkt := arrivingPacket(t, []byte{payload})
		dg := make([]byte, HeaderLen+len(pkt))
		copy(dg, magic[:])
		dg[4], dg[5] = Version, TypeData
		binary.BigEndian.PutUint16(dg[6:8], 7)
		copy(dg[HeaderLen:], pkt)
		return dg
	}
	burst := [][]byte{frame(1), {'N', 'O', 'P', 'E', Version, TypeData, 0, 7, 0xAA}, frame(2), frame(3)}
	for _, dg := range burst {
		if _, err := c.Write(dg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of the 3 good datagrams", i)
		}
	}
	if n := b.DecodeErrors(); n != 1 {
		t.Fatalf("bridge decode errors = %d, want 1", n)
	}
	if s := rx.Stats(); s.Decapsulated != 3 || s.DecodeErrors != 0 {
		t.Fatalf("receiver stats = %+v, want 3 decapsulated and no tunnel decode errors", s)
	}
}
