package vmtp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/viper"
)

const (
	hostileClient = 0xC1
	hostileServer = 0x51
)

// hostileGroup is a sequence of CRC-valid request packets: four whose
// group headers no receiver may honour (an oversized TotalLen, NPkts 0
// and 33, and a PktIndex past NPkts sharing its transaction with the
// valid group), then that valid two-packet group.
func hostileGroup() (crafted, valid []*Packet) {
	req := func(txn uint32, idx, n uint8, total uint32, data string) *Packet {
		return &Packet{Header: Header{
			Client: hostileClient, Server: hostileServer, Txn: txn, Kind: KindRequest,
			PktIndex: idx, NPkts: n, TotalLen: total,
		}, Data: []byte(data)}
	}
	crafted = []*Packet{
		req(1, 0, 1, 256<<20, "huge"),
		req(2, 0, 0, 4, "none"),
		req(3, 0, 33, 33, "x"),
		req(4, 2, 2, 8, "past"),
	}
	valid = []*Packet{req(4, 0, 2, 8, "good"), req(4, 1, 2, 8, "data")}
	return crafted, valid
}

// served records what a handler saw: each request it answered, and
// each broken invariant it found in the endpoint's state on entry.
type served struct {
	data     [][]byte
	problems []string
}

// record notes one handler run; the caller holds the driver's lock.
func (s *served) record(c *core, data []byte) {
	if msg := groupProblem(c); msg != "" {
		s.problems = append(s.problems, msg)
	}
	s.data = append(s.data, append([]byte(nil), data...))
}

// hostileSim is a simulated server endpoint with no network under it:
// what it transmits goes nowhere, which is all the inbound path needs.
func hostileSim(s *served) *Endpoint {
	eng := sim.NewEngine(1)
	ep := NewEndpoint(eng, router.NewHost(eng, "h"), clock.New(eng, 0, 0), hostileServer, 1, Config{})
	ep.SetHandler(func(_ uint64, data []byte) []byte {
		s.record(&ep.core, data)
		return data
	})
	return ep
}

// hostileRT is a real-time server endpoint whose carrier closes
// answered when it sends the first packet of a response to client.
func hostileRT(s *served, client uint64, answered chan<- struct{}) *RT {
	var once sync.Once
	car := CarrierFunc(func(_ []viper.Segment, pkt []byte) error {
		if p, err := Decode(pkt); err == nil && p.Kind == KindResponse && p.Client == client {
			once.Do(func() { close(answered) })
		}
		return nil
	})
	rt := NewRT(hostileServer, car, Config{})
	rt.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		rt.mu.Lock()
		s.record(&rt.core, data)
		rt.mu.Unlock()
		return data
	})
	return rt
}

// groupProblem names a broken reassembly invariant: a request group
// handed to the handler while incomplete, or a reassembly buffer above
// maxGroupLen. It returns "" when both hold.
func groupProblem(c *core) string {
	for key, g := range c.rxReqs {
		switch {
		case len(g.data) > maxGroupLen:
			return fmt.Sprintf("group %+v: %d-byte reassembly buffer above maxGroupLen", key, len(g.data))
		case g.served && !g.complete():
			return fmt.Sprintf("group %+v: handler ran with mask %#x of %d packets", key, g.mask, g.nPkts)
		}
	}
	return ""
}

// TestHostileGroupHeaders delivers CRC-valid packets with impossible
// group headers to both drivers: each is counted as a drop, none is
// reassembled, and the valid group that follows is served exactly once.
func TestHostileGroupHeaders(t *testing.T) {
	crafted, valid := hostileGroup()
	ret := []viper.Segment{{Port: 1}}
	check := func(t *testing.T, s *served, drops uint64) {
		t.Helper()
		if drops != uint64(len(crafted)) {
			t.Errorf("ChecksumDrops = %d, want %d", drops, len(crafted))
		}
		if len(s.data) != 1 || string(s.data[0]) != "gooddata" || s.problems != nil {
			t.Errorf("handler saw %q (problems %v), want one %q", s.data, s.problems, "gooddata")
		}
	}

	t.Run("sim", func(t *testing.T) {
		var s served
		ep := hostileSim(&s)
		for _, p := range crafted {
			ep.Deliver(&router.Delivery{Data: p.Encode(), ReturnRoute: ret, Pkt: &viper.Packet{}})
		}
		if n := len(ep.rxReqs); n != 0 {
			t.Errorf("%d groups reassembling from crafted packets", n)
		}
		for _, p := range valid {
			ep.Deliver(&router.Delivery{Data: p.Encode(), ReturnRoute: ret, Pkt: &viper.Packet{}})
		}
		check(t, &s, ep.Stats.ChecksumDrops)
	})

	t.Run("rt", func(t *testing.T) {
		var s served
		answered := make(chan struct{})
		rt := hostileRT(&s, hostileClient, answered)
		for _, p := range append(crafted, valid...) {
			rt.Deliver(p.Encode(), ret)
		}
		select {
		case <-answered:
		case <-time.After(5 * time.Second):
			t.Fatal("valid group never answered")
		}
		rt.Close()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if n := len(rt.rxReqs); n != 0 {
			t.Errorf("%d groups still reassembling", n)
		}
		check(t, &s, rt.core.Stats.ChecksumDrops)
	})
}

// fuzzRecords splits fuzz input into at most 16 packets. Each record
// is a mode byte, a big-endian uint16 length and that many bytes. Mode
// bit 0 aims the packet at the endpoint under test (Server for a
// request, Client otherwise) and bit 1 reseals its CRC, so the fuzzer
// reaches the protocol past the checksum.
func fuzzRecords(in []byte) [][]byte {
	var out [][]byte
	for len(in) >= 3 && len(out) < 16 {
		mode, n := in[0], int(binary.BigEndian.Uint16(in[1:3]))
		in = in[3:]
		n = min(n, len(in))
		rec := append([]byte(nil), in[:n]...)
		in = in[n:]
		if len(rec) >= HeaderLen {
			if mode&1 != 0 {
				field := 0 // Client
				if Kind(rec[20]) == KindRequest {
					field = 8 // Server
				}
				binary.BigEndian.PutUint64(rec[field:], hostileServer)
			}
			if mode&2 != 0 {
				p := Packet{Data: rec[HeaderLen:]}
				p.Client = binary.BigEndian.Uint64(rec[0:8])
				p.Server = binary.BigEndian.Uint64(rec[8:16])
				p.Txn = binary.BigEndian.Uint32(rec[16:20])
				p.Kind, p.PktIndex, p.NPkts, p.Flags = Kind(rec[20]), rec[21], rec[22], rec[23]
				p.Mask = binary.BigEndian.Uint32(rec[24:28])
				p.TotalLen = binary.BigEndian.Uint32(rec[28:32])
				p.Timestamp = clock.Timestamp(binary.BigEndian.Uint32(rec[32:36]))
				rec = p.Encode()
			}
		}
		out = append(out, rec)
	}
	return out
}

// fuzzRecord encodes p as one fuzzRecords record in mode 0.
func fuzzRecord(p *Packet) []byte {
	b := p.Encode()
	return append([]byte{0, byte(len(b) >> 8), byte(len(b))}, b...)
}

// markerClient owns the RT half's end-of-input marker transaction;
// fuzz packets from it are skipped so none can pre-empt the marker.
const markerClient = ^uint64(0)

// FuzzDeliver feeds arbitrary packets to Decode and to both drivers'
// Deliver: nothing may panic, no reassembly buffer may exceed
// maxGroupLen, and the handler never runs on an incomplete group.
func FuzzDeliver(f *testing.F) {
	crafted, valid := hostileGroup()
	var seed []byte
	for _, p := range append(crafted, valid...) {
		seed = append(seed, fuzzRecord(p)...)
	}
	f.Add(seed)
	probe := valid[0].Header
	probe.Flags |= FlagProbe
	ack := &Packet{Header: Header{Client: hostileServer, Server: hostileClient, Txn: 4, Kind: KindAck, NPkts: 2, Mask: 3}}
	f.Add(append(append(fuzzRecord(valid[0]), fuzzRecord(&Packet{Header: probe})...), fuzzRecord(ack)...))
	f.Add([]byte{3, 0, 40, 0, 0, 0, 0, 0, 0, 0, 0xC1})

	f.Fuzz(func(t *testing.T, in []byte) {
		var recs [][]byte
		for _, rec := range fuzzRecords(in) {
			if p, err := Decode(rec); err == nil && p.Client == markerClient {
				continue
			}
			recs = append(recs, rec)
		}

		var s served
		ep := hostileSim(&s)
		for _, rec := range recs {
			ep.Deliver(&router.Delivery{Data: rec, ReturnRoute: []viper.Segment{{Port: 1}}, Pkt: &viper.Packet{}})
		}
		ep.eng.RunUntil(ep.eng.Now() + sim.Second)
		if msg := groupProblem(&ep.core); msg != "" || s.problems != nil {
			t.Fatalf("sim: %s %v", msg, s.problems)
		}

		s = served{}
		answered := make(chan struct{})
		rt := hostileRT(&s, markerClient, answered)
		for _, rec := range recs {
			rt.Deliver(rec, []viper.Segment{{Port: 1}})
		}
		// The receive queue is FIFO: once the marker is answered, every
		// fuzz packet before it has been processed.
		m := &Packet{Header: Header{Client: markerClient, Server: hostileServer, Txn: 1, Kind: KindRequest, NPkts: 1}}
		rt.Deliver(m.Encode(), []viper.Segment{{Port: 1}})
		select {
		case <-answered:
		case <-time.After(5 * time.Second):
			t.Fatal("marker request never answered")
		}
		rt.Close()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if msg := groupProblem(&rt.core); msg != "" || s.problems != nil {
			t.Fatalf("rt: %s %v", msg, s.problems)
		}
		for _, rec := range recs {
			if p, err := Decode(rec); err == nil && !bytes.Equal(p.Encode(), rec) {
				t.Fatalf("Decode/Encode round trip changed %x", rec)
			}
		}
	})
}
