// Package ring provides the single-producer single-consumer ring buffer
// behind every livenet link. Handing frames across goroutines one
// channel send at a time made the per-frame handoff — not allocation,
// already 0/hop — the dominant cost at ~0.5M pkts/sec. The ring
// amortizes it: a producer publishes a batch of N frames with one
// release-store of the tail index, and a consumer claims a batch with
// one acquire-load and one store of the head, so the synchronization
// cost per frame falls as 1/N.
//
// The ring itself is lock-free and allocation-free after construction.
// It deliberately carries no blocking machinery: sleeping and waking are
// the caller's policy (livenet uses capacity-1 doorbell channels on both
// sides — see internal/livenet's pipe type), and a mutex on the producer
// side turns the SPSC ring into a multi-producer queue when several
// workers share an output port, locked once per batch rather than once
// per frame.
//
// Memory discipline: PopBatch zeroes the slots it vacates before
// publishing the new head, so the ring never retains a reference to a
// popped element (pooled frame buffers must not be pinned by dead ring
// slots), and the producer never observes a slot as free before the
// consumer is done with it.
package ring

import "sync/atomic"

// cacheLine keeps the producer and consumer indices on separate cache
// lines so the two sides do not false-share.
const cacheLine = 64

// SPSC is a bounded single-producer single-consumer queue over a
// power-of-two circular buffer. Exactly one goroutine may push at a
// time and exactly one may pop at a time; the two sides need no common
// lock. Closing is a producer-side action: after Close, pushes fail and
// the consumer drains what remains.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	_    [cacheLine]byte
	// head is the next slot to pop; written only by the consumer.
	head atomic.Uint64
	_    [cacheLine]byte
	// tail is the next slot to push; written only by the producer.
	tail   atomic.Uint64
	_      [cacheLine]byte
	closed atomic.Bool
}

// New returns a ring with capacity rounded up to the next power of two
// (minimum 2).
func New[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring's fixed capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued elements. Exact for either endpoint
// about its own side; a snapshot for anyone else.
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// TryPush appends one element, reporting false when the ring is full or
// closed. Producer-side only.
func (r *SPSC[T]) TryPush(v T) bool {
	if r.closed.Load() {
		return false
	}
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// PushBatch appends as many of vs as fit, returning the count (0 when
// full or closed). The elements land in order; one tail publication
// covers the whole batch. Producer-side only.
func (r *SPSC[T]) PushBatch(vs []T) int {
	if r.closed.Load() {
		return 0
	}
	t := r.tail.Load()
	free := uint64(len(r.buf)) - (t - r.head.Load())
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = vs[i]
	}
	r.tail.Store(t + n)
	return int(n)
}

// TryPop removes one element, reporting false when the ring is empty.
// Consumer-side only.
func (r *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h == r.tail.Load() {
		return zero, false
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	return v, true
}

// PopBatch removes up to len(dst) elements into dst, returning the
// count. Vacated slots are zeroed before the head is published, so the
// ring holds no reference to a popped element. Consumer-side only.
func (r *SPSC[T]) PopBatch(dst []T) int {
	var zero T
	h := r.head.Load()
	avail := r.tail.Load() - h
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		dst[i] = r.buf[(h+i)&r.mask]
		r.buf[(h+i)&r.mask] = zero
	}
	r.head.Store(h + n)
	return int(n)
}

// Close marks the ring closed: subsequent pushes fail, pops keep
// draining what was already published. Producer-side; idempotent.
func (r *SPSC[T]) Close() { r.closed.Store(true) }

// Closed reports whether Close has been called. A consumer is done when
// Closed() && Len() == 0 — checked in that order, with a re-check of
// Len after Closed, since the producer may push right up to the close.
func (r *SPSC[T]) Closed() bool { return r.closed.Load() }
