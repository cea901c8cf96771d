package main

import (
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Measurement primitives shared by the workloads: a log-linear latency
// histogram, process CPU and memory readings, and a monotonic clock.

// epoch anchors every timestamp the benchmark takes; now() is
// nanoseconds since it, read from the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// subBits sets the histogram's resolution: 2^subBits buckets per power
// of two, so a bucket is at most 1/128 (0.8%) of its value wide. Values
// below 128 ns are exact.
const subBits = 7

// hist is a log-linear histogram of nanosecond durations. It is owned
// by one goroutine while recording; merge after the owners have
// stopped. Quantiles interpolate linearly within a bucket.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	mant := uint64(v) >> (msb - subBits)
	return (msb-subBits+1)<<subBits + int(mant) - 1<<subBits
}

// bucketRange returns a bucket's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i >> subBits
	m := uint64(i&(1<<subBits-1)) + 1<<subBits
	shift := e - 1
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) in nanoseconds; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// cpuNanos returns the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's peak resident set size in MB (10^6
// bytes); Linux reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// procSample is one reading of the process counters taken at a phase
// boundary.
type procSample struct {
	at  int64
	cpu int64
	mem runtime.MemStats
}

func sampleProc() procSample {
	var s procSample
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuNanos()
	s.at = now()
	return s
}

// procDelta is the process cost of one phase.
type procDelta struct {
	wall, cpu      int64
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        uint64
}

func (d *procDelta) add(o procDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcCycles += o.gcCycles
	d.gcPause += o.gcPause
}

func deltaProc(a, b procSample) procDelta {
	return procDelta{
		wall:     b.at - a.at,
		cpu:      b.cpu - a.cpu,
		mallocs:  b.mem.Mallocs - a.mem.Mallocs,
		bytes:    b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcCycles: b.mem.NumGC - a.mem.NumGC,
		gcPause:  b.mem.PauseTotalNs - a.mem.PauseTotalNs,
	}
}

// goroutinePeak samples runtime.NumGoroutine until stopped and keeps the
// maximum seen.
type goroutinePeak struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func startGoroutinePeak() *goroutinePeak {
	g := &goroutinePeak{stop: make(chan struct{}), done: make(chan struct{})}
	g.note()
	go func() {
		defer close(g.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.note()
			}
		}
	}()
	return g
}

func (g *goroutinePeak) note() {
	n := int64(runtime.NumGoroutine())
	for {
		cur := g.peak.Load()
		if n <= cur || g.peak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Stop ends sampling and returns the peak.
func (g *goroutinePeak) Stop() int64 {
	close(g.stop)
	<-g.done
	return g.peak.Load()
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation; xs is
// reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

// waitQuiet polls read until it returns the same value stable times in
// a row, interval apart, or until limit passes. It returns how long it
// waited and whether the value settled.
func waitQuiet(read func() [16]uint64, stable int, interval, limit time.Duration) (time.Duration, bool) {
	start := time.Now()
	last := read()
	same := 0
	for time.Since(start) < limit {
		time.Sleep(interval)
		cur := read()
		if cur == last {
			same++
			if same >= stable {
				return time.Since(start), true
			}
			continue
		}
		same = 0
		last = cur
	}
	return time.Since(start), false
}
