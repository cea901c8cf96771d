package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
)

// Spans recorded by the traced run, from the benchmark's own files:
// around each setup call, around Host.Send and the delivery of sampled
// datagrams, and around each SOCKS dial, bulk write and RPC round trip.
// The program's own tracers stay off. Spans stay in memory, in one
// buffer per recording goroutine, and are written out when the run ends.

// Span names. A span's id is op<<8 | name, so a child can name its
// parent without coordination between goroutines: spans of one
// operation share op.
const (
	spanSetup uint8 = iota + 1
	spanDirRoutes
	spanNetBuild
	spanAttach
	spanGatewayStart
	spanDial
	spanProbe
	spanSend
	spanDeliver
	spanBulkWrite
	spanRPC
)

var spanNames = map[uint8]string{
	spanSetup:        "bench.setup",
	spanDirRoutes:    "directory.Service.Routes",
	spanNetBuild:     "livenet.build",
	spanAttach:       "udpnet.Bridge.Attach",
	spanGatewayStart: "daemon.StartGateway",
	spanDial:         "gateway.DialSocks",
	spanProbe:        "bench.first_op",
	spanSend:         "livenet.Host.Send",
	spanDeliver:      "livenet.deliver",
	spanBulkWrite:    "gateway.bulk_write",
	spanRPC:          "gateway.rpc",
}

type span struct {
	name       uint8
	op         uint64
	parent     uint64 // id of the causing span, 0 for a root
	start, end int64
}

func spanID(op uint64, name uint8) uint64 { return op<<8 | uint64(name) }

// spanBuf is one goroutine's span buffer; a nil *spanBuf records
// nothing, which is how untraced phases run.
type spanBuf struct{ spans []span }

func (b *spanBuf) add(name uint8, op, parent uint64, start, end int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{name: name, op: op, parent: parent, start: start, end: end})
}

// recorder owns every span buffer of a run.
type recorder struct {
	mu   sync.Mutex
	bufs []*spanBuf
}

// buf returns a new buffer for one goroutine; nil on a nil recorder.
func (r *recorder) buf() *spanBuf {
	if r == nil {
		return nil
	}
	b := &spanBuf{spans: make([]span, 0, 1024)}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// each calls fn for every recorded span. Call only after the recording
// goroutines have stopped.
func (r *recorder) each(fn func(s span)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bufs {
		for _, s := range b.spans {
			fn(s)
		}
	}
}

// durations returns the durations, in nanoseconds, of every span named
// name.
func (r *recorder) durations(name uint8) []float64 {
	var out []float64
	r.each(func(s span) {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	})
	return out
}

// count returns the number of spans recorded.
func (r *recorder) count() int {
	n := 0
	r.each(func(span) { n++ })
	return n
}

// write stores every span as tab-separated name, op, id, parent, start
// and end (ns since the process epoch).
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\top\tid\tparent\tstart_ns\tend_ns")
	r.each(func(s span) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.op, spanID(s.op, s.name), s.parent, s.start, s.end)
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
