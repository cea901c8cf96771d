package vmtp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/viper"
)

// testWire is a direct in-process carrier between two RT endpoints
// with seeded pseudorandom packet loss. (Deterministic modular loss —
// "drop every Nth" — phase-locks with fixed-size retransmission
// rounds and can drop the same packet forever; random loss is what
// the recovery machinery is specified against.)
// A filter hook can drop packets by content (e.g. only responses).
type testWire struct {
	mu       sync.Mutex
	dst      *RT
	ret      []viper.Segment
	lossRate float64
	rnd      *rand.Rand
	filter   func(p *Packet) bool // return false to drop
}

func (w *testWire) Send(route []viper.Segment, pkt []byte) error {
	w.mu.Lock()
	drop := w.lossRate > 0 && w.rnd.Float64() < w.lossRate
	w.mu.Unlock()
	if drop {
		return nil
	}
	if w.filter != nil {
		if p, err := Decode(pkt); err == nil && !w.filter(p) {
			return nil
		}
	}
	cp := append([]byte(nil), pkt...)
	w.dst.Deliver(cp, w.ret)
	return nil
}

var testRoute = []viper.Segment{{Port: 1}}

// rtPair wires a client and server RT together.
func rtPair(t *testing.T, cfg Config) (*RT, *RT, *testWire, *testWire) {
	t.Helper()
	toServer := &testWire{ret: testRoute, rnd: rand.New(rand.NewSource(71))}
	toClient := &testWire{ret: testRoute, rnd: rand.New(rand.NewSource(72))}
	client := NewRT(0xC1, CarrierFunc(toServer.Send), cfg)
	server := NewRT(0x51, CarrierFunc(toClient.Send), cfg)
	toServer.dst = server
	toClient.dst = client
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server, toServer, toClient
}

func TestRTBasicCall(t *testing.T) {
	client, server, _, _ := rtPair(t, Config{})
	server.SetHandler(func(from uint64, data []byte, ret []viper.Segment) []byte {
		if from != 0xC1 {
			t.Errorf("from = %#x, want 0xC1", from)
		}
		return append([]byte("echo:"), data...)
	})
	resp, err := client.Call(0x51, testRoute, []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "echo:hello" {
		t.Fatalf("resp = %q", resp)
	}
	if s := client.Stats(); s.CallsCompleted != 1 {
		t.Fatalf("CallsCompleted = %d", s.CallsCompleted)
	}
	if client.RTT(0x51) == 0 {
		t.Fatal("no RTT recorded after clean call")
	}
}

// TestRTServedGroupReleased pins the request-side cleanup: once a
// request group is served it leaves no rxReqs entry, and its
// GroupTimeout timer is stopped, so the timer's closure no longer pins
// the group's reassembly buffer for the rest of the timeout.
func TestRTServedGroupReleased(t *testing.T) {
	client, server, _, _ := rtPair(t, Config{})
	var served *rxGroup
	server.SetHandler(func(from uint64, data []byte, ret []viper.Segment) []byte {
		server.mu.Lock()
		for _, g := range server.rxReqs {
			served = g
		}
		server.mu.Unlock()
		return data
	})
	if _, err := client.Call(0x51, testRoute, make([]byte, 3000)); err != nil {
		t.Fatalf("Call: %v", err)
	}
	server.mu.Lock()
	pending := len(server.rxReqs)
	server.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d request groups still held after the call was served", pending)
	}
	if served == nil {
		t.Fatal("handler saw no request group")
	}
	if served.expire.Stop() {
		t.Fatal("served group's GroupTimeout timer was still pending")
	}
}

func TestRTLargeGroupUnderLoss(t *testing.T) {
	cfg := Config{
		BaseTimeout: 20 * time.Millisecond,
		GapAckDelay: time.Millisecond,
		MaxRetries:  50,
		CallTimeout: 5 * time.Second,
	}
	client, server, toServer, toClient := rtPair(t, cfg)
	toServer.lossRate = 0.15
	toClient.lossRate = 0.2
	want := make([]byte, 30000)
	rnd := rand.New(rand.NewSource(8))
	rnd.Read(want)
	var got []byte
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		got = append([]byte(nil), data...)
		return data
	})
	resp, err := client.Call(0x51, testRoute, want)
	if err != nil {
		t.Fatalf("Call under loss: %v\nclient: %+v\nserver: %+v", err, client.Stats(), server.Stats())
	}
	if !bytes.Equal(got, want) {
		t.Fatal("request data corrupted under loss")
	}
	if !bytes.Equal(resp, want) {
		t.Fatal("response data corrupted under loss")
	}
	s := client.Stats()
	if s.Retransmissions == 0 && s.SelectiveResends == 0 {
		t.Fatal("expected retransmission activity under loss")
	}
}

// TestRTSlowHandlerProbes proves the "received, response pending"
// contract: once the full group is acked, a handler that blocks far
// past the retransmission budget must not fail the call.
func TestRTSlowHandlerProbes(t *testing.T) {
	cfg := Config{
		BaseTimeout: 10 * time.Millisecond,
		MaxRetries:  3,
	}
	client, server, _, _ := rtPair(t, cfg)
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		time.Sleep(400 * time.Millisecond) // >> MaxRetries * backoff
		return data
	})
	resp, err := client.Call(0x51, testRoute, []byte("slow"))
	if err != nil {
		t.Fatalf("Call with slow handler: %v", err)
	}
	if string(resp) != "slow" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestRTDuplicateSuppression drops the first response so the client
// retransmits a request the server has already served: the handler
// must run once and the cached response must answer the duplicate.
func TestRTDuplicateSuppression(t *testing.T) {
	cfg := Config{BaseTimeout: 15 * time.Millisecond}
	client, server, _, toClient := rtPair(t, cfg)
	var dropped atomic.Bool
	toClient.filter = func(p *Packet) bool {
		if p.Kind == KindResponse && dropped.CompareAndSwap(false, true) {
			return false
		}
		return true
	}
	var invocations atomic.Int64
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		invocations.Add(1)
		return data
	})
	resp, err := client.Call(0x51, testRoute, []byte("once"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "once" {
		t.Fatalf("resp = %q", resp)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
	waitFor(t, time.Second, func() bool { return server.Stats().DupRequests >= 1 })
}

func TestRTCallFailsWithoutServer(t *testing.T) {
	cfg := Config{BaseTimeout: 5 * time.Millisecond, MaxRetries: 2}
	blackhole := CarrierFunc(func(_ []viper.Segment, _ []byte) error { return nil })
	client := NewRT(0xC1, blackhole, cfg)
	defer client.Close()
	_, err := client.Call(0x51, testRoute, []byte("void"))
	if !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed", err)
	}
	if s := client.Stats(); s.CallsFailed != 1 {
		t.Fatalf("CallsFailed = %d", s.CallsFailed)
	}
}

func TestRTClosedEndpoint(t *testing.T) {
	blackhole := CarrierFunc(func(_ []viper.Segment, _ []byte) error { return nil })
	client := NewRT(0xC1, blackhole, Config{})
	client.Close()
	if _, err := client.Call(0x51, testRoute, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	client.Close() // idempotent
}

func TestRTConcurrentCalls(t *testing.T) {
	cfg := Config{
		BaseTimeout: 20 * time.Millisecond,
		GapAckDelay: time.Millisecond,
		MaxRetries:  50,
	}
	client, server, toServer, toClient := rtPair(t, cfg)
	toServer.lossRate = 0.08
	toClient.lossRate = 0.08
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		return data
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				payload := make([]byte, 100+g*512+i)
				for j := range payload {
					payload[j] = byte(g + i + j)
				}
				resp, err := client.Call(0x51, testRoute, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, payload) {
					errs <- errors.New("echo mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := client.Stats(); s.CallsCompleted != 64 {
		t.Fatalf("CallsCompleted = %d, want 64", s.CallsCompleted)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestSequencerOrders(t *testing.T) {
	s := NewSequencer()
	const n = 64
	var mu sync.Mutex
	var order []uint32
	var wg sync.WaitGroup
	seqs := rand.New(rand.NewSource(4)).Perm(n)
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq uint32) {
			defer wg.Done()
			if err := s.Admit(seq); err != nil {
				t.Errorf("Admit(%d): %v", seq, err)
				return
			}
			mu.Lock()
			order = append(order, seq)
			mu.Unlock()
			s.Done()
		}(uint32(seq))
	}
	wg.Wait()
	for i, seq := range order {
		if seq != uint32(i) {
			t.Fatalf("order[%d] = %d", i, seq)
		}
	}
	if s.Next() != n {
		t.Fatalf("Next = %d", s.Next())
	}
}

func TestSequencerReplay(t *testing.T) {
	s := NewSequencer()
	if err := s.Admit(0); err != nil {
		t.Fatal(err)
	}
	s.Done()
	if err := s.Admit(0); !errors.Is(err, ErrReplayed) {
		t.Fatalf("replay err = %v", err)
	}
}

func TestSequencerAbort(t *testing.T) {
	s := NewSequencer()
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- s.Admit(5) // blocks: 0..4 not delivered
	}()
	time.Sleep(10 * time.Millisecond)
	s.Abort(boom)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("aborted Admit err = %v", err)
	}
	if err := s.Admit(0); !errors.Is(err, boom) {
		t.Fatalf("post-abort Admit err = %v", err)
	}
}

// rtCallSizes are the request sizes BenchmarkRTCall and
// TestRTCallAllocs measure: one packet, and one full 32-packet group.
var rtCallSizes = []int{1 << 10, 32 << 10}

// rtCallLoop runs n echo transactions of size bytes over lossless
// in-memory carriers; the 16-byte response keeps the cost on the
// request group.
func rtCallLoop(tb testing.TB, size int) func(n int) {
	toServer := &testWire{ret: testRoute}
	toClient := &testWire{ret: testRoute}
	client := NewRT(0xC1, CarrierFunc(toServer.Send), Config{})
	server := NewRT(0x51, CarrierFunc(toClient.Send), Config{})
	toServer.dst, toClient.dst = server, client
	tb.Cleanup(func() {
		client.Close()
		server.Close()
	})
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte { return data[:16] })
	req := make([]byte, size)
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Call(0x51, testRoute, req); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func BenchmarkRTCall(b *testing.B) {
	for _, size := range rtCallSizes {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			run := rtCallLoop(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// TestRTCallAllocs pins the real-time transaction's allocation cost
// (both endpoints, request and response): the driver's timer plumbing
// must not add a per-packet closure or interface allocation. The
// ceilings are the cost before the protocol core was shared between
// the drivers: 35 and 197 allocs/op, measured with BenchmarkRTCall on
// a 2-vCPU Xeon with Go 1.24.
func TestRTCallAllocs(t *testing.T) {
	ceiling := map[int]float64{1 << 10: 35, 32 << 10: 197}
	for _, size := range rtCallSizes {
		run := rtCallLoop(t, size)
		run(10) // warm the pools and the RTT estimate
		if got := testing.AllocsPerRun(200, func() { run(1) }); got > ceiling[size] {
			t.Errorf("%d-byte call: %.1f allocs/op, ceiling %.0f", size, got, ceiling[size])
		}
	}
}
